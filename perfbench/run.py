"""toeplitz-forge benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

Run from the root of a checkout; the library is imported from its ``src``.
One process drives all load: it runs one operation at a time (a closed
loop with one client) and starts no threads; the library's own CLI thread
pools are part of what is measured.  Passes repeat until the next one
would end after ``--seconds``; at least one always runs.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs untraced
and traced passes and prints the per-layer metrics.  Every operation's
output is checked.  Report lines come first; the last line of standard
output is the JSON result.  ``--out DIR`` also writes the result, the
environment and any spans there.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli-defaults", "spectral-sweep", "exact-symbolic")
SETUP_SAMPLES = 3  # two in fresh interpreters, one in this process
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
KNOWN_JOB = "sphere-bergman-check"  # its duplicate work is reported on its own

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
)

# (traced name, fields) reported as "<layer>.<rest>.<field>"
NAMED = (
    ("_kernels.conv_pair", ("calls", "busy_s")),
    ("_kernels.jacobi_eigh", ("calls", "busy_s")),
    ("covariant_calculus.bergman_symbol", ("calls", "distinct_args", "busy_s")),
    ("covariant_calculus.sharp_product", ("busy_s",)),
    ("covariant_calculus.solve_sharp", ("busy_s",)),
    ("stationary_phase.morse_normalize_family", ("calls",)),
    ("stationary_phase.PairFamily.mul", ("calls", "busy_s")),
    ("stationary_phase.wick_expand", ("busy_s",)),
    ("stationary_phase.morse_expand", ("busy_s",)),
    ("quantization_spectral.bergman_kernel_error", ("busy_s", "wait_s")),
    ("quantization_spectral.covariant_matrix", ("busy_s",)),
    ("quantization_spectral.bergman_gram_defect", ("busy_s",)),
    ("quantization_spectral.eigenpairs", ("busy_s",)),
    ("quantization_spectral.operator_norm", ("busy_s",)),
    ("quantization_spectral.invertibility_check", ("busy_s",)),
    ("quantization_spectral.forbidden_mass", ("busy_s",)),
    ("combinatorics.hull_membership", ("busy_s",)),
    ("combinatorics.lem_hard_sum", ("busy_s",)),
    ("combinatorics.binom_multi_bound", ("busy_s",)),
    ("function_spaces.summation", ("busy_s",)),
    ("series.PowerSeries.mul", ("calls", "busy_s")),
)
UNITS = {"calls": "count", "errors": "count", "distinct_args": "count",
         "busy_s": "s", "self_s": "s", "wait_s": "s"}


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    from layers import LAYERS, metric_prefix

    spec = [(f"{metric_prefix(layer)}.{field}", UNITS[field], "lower")
            for layer in LAYERS for field in ("calls", "busy_s", "self_s", "errors")]
    spec += [(f"{metric_prefix(name)}.{field}", UNITS[field], "lower")
             for name, fields in NAMED for field in fields]
    spec += [
        ("kernels.conv_pair.flops_computed", "flop", "lower"),
        ("kernels.conv_pair.bytes_computed", "bytes", "lower"),
        ("covariant_calculus.engine_build_yield", "ratio", "higher"),
        (f"job.{KNOWN_JOB}.bergman_symbol.calls", "count", "lower"),
        (f"job.{KNOWN_JOB}.bergman_symbol.distinct_args", "count", "lower"),
        (f"job.{KNOWN_JOB}.engine_build_yield", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return spec


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def locate_library() -> None:
    """Import the library from this checkout's sources, or refuse to run."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "toeplitz_forge", "__init__.py")):
        fail(f"no library sources at {src}/toeplitz_forge; run from a checkout of the repository")
    sys.path.insert(0, src)


def host_ticks():
    """(steal, total) CPU ticks of the whole machine, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


# ---------------------------------------------------------------------------
# set-up


def set_up(name: str, seed: int, work: str):
    """Import, input generation and warm-up; returns (workload, seconds)."""
    from workloads import SETUP

    start = time.perf_counter()
    workload = SETUP[name](seed, ROOT, work)
    for op in workload.warmup:
        result, error, _ = call(op)
        judge(op, result, error)
    return workload, time.perf_counter() - start


def setup_in_child(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", name, "--seed", str(seed)],
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        fail(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# passes


def call(op):
    """Run one operation; returns (result, error text, latency)."""
    start = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # one failing call must not end the run
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, time.perf_counter() - start


def judge(op, result, error):
    """(failure text or None, whether the failure is unexpected)."""
    if error is not None:
        return error, True
    try:
        problem = op.check(result)
        verdict = op.verdict(result) if op.verdict is not None else None
    except Exception as exc:  # a check that cannot read the output fails the operation
        return f"check raised {type(exc).__name__}: {exc}", True
    if problem is not None:
        return problem, True
    if verdict is not None:
        return verdict, not op.known_defect
    return None, False


def run_pass(workload, index: int, tracer) -> dict:
    latencies, failures = [], []
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    for i, op in enumerate(workload.ops):
        op_id = f"{index}.{i}"
        if tracer is not None:
            tracer.op = op_id
        if workload.cli is not None:
            workload.cli.op_id = op_id
        result, error, latency = call(op)
        if tracer is not None:
            tracer.op = None
        latencies.append(latency)
        failure, unexpected = judge(op, result, error)
        if failure is not None:
            failures.append((op.name, failure, unexpected))
    return {"wall": time.perf_counter() - start, "cpu": cpu_seconds() - cpu0,
            "latencies": latencies, "failures": failures, "names": [op.name for op in workload.ops]}


def run_for(workload, seconds: float, tracer=None, first: int = 0) -> list:
    """Passes until the next would end after ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, first + len(passes), tracer))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["wall"] for p in passes) > seconds:
            return passes


def tail(latencies: list) -> tuple:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / n


# ---------------------------------------------------------------------------
# metrics


def end_to_end(passes: list, setup_samples: list, in_process: bool) -> tuple:
    latencies = [x for p in passes for x in p["latencies"]]
    tails = [tail(p["latencies"]) for p in passes]
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    attempted = len(latencies)
    failed = sum(len(p["failures"]) for p in passes)
    values = {
        "setup_s": statistics.median(setup_samples),
        "pass_s": statistics.median(p["wall"] for p in passes),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": statistics.median(t[0] for t in tails),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "success_ratio": 1.0 - failed / attempted,
    }
    notes = [
        f"passes: {len(passes)}, operations per pass: {len(passes[0]['latencies'])}",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup_samples)}",
        f"op_tail_s: p{tails[0][1]:.1f} of each pass's {len(passes[0]['latencies'])} operations, "
        f"median over {len(passes)} passes",
        f"failed_ratio: {failed}/{attempted} = {failed / attempted:.4f}",
    ]
    return values, notes


def per_layer(summary: dict, traced: list, untraced: list, cli) -> tuple:
    from layers import LAYERS, merge, metric_prefix

    n = len(traced)
    names, layers = summary.get("names", {}), summary.get("layers", {})
    values = {}
    for layer in LAYERS:
        row = layers.get(layer, {})
        for field in ("calls", "busy_s", "self_s", "errors"):
            values[f"{metric_prefix(layer)}.{field}"] = row.get(field, 0) / n
    for name, fields in NAMED:
        row = names.get(name, {})
        for field in fields:
            values[f"{metric_prefix(name)}.{field}"] = row.get(field, 0) / n
    work = summary.get("conv_pair", {})
    values["kernels.conv_pair.flops_computed"] = work.get("flops_computed", 0) / n
    values["kernels.conv_pair.bytes_computed"] = work.get("bytes_computed", 0) / n
    values["covariant_calculus.engine_build_yield"] = build_yield(names)
    job: dict = {}
    for name, part in (cli.summaries.values() if cli is not None else ()):
        if name == KNOWN_JOB:
            merge(job, part)
    job_names = job.get("names", {})
    berg = job_names.get("covariant_calculus.bergman_symbol", {})
    values[f"job.{KNOWN_JOB}.bergman_symbol.calls"] = berg.get("calls", 0) / n
    values[f"job.{KNOWN_JOB}.bergman_symbol.distinct_args"] = berg.get("distinct_args", 0) / n
    values[f"job.{KNOWN_JOB}.engine_build_yield"] = build_yield(job_names)
    values["trace.overhead_ratio"] = (statistics.median(p["wall"] for p in traced)
                                      / statistics.median(p["wall"] for p in untraced))
    notes = [f"traced passes: {n}, untraced passes: {len(untraced)}; per-layer values are per pass",
             "conv_pair flops and bytes are computed from array shapes, not measured"]
    if cli is not None:
        notes.append("per job: morse_normalize_family calls/distinct keys, bergman_symbol calls/distinct args")
        for job_name, part in cli.summaries.values():
            rows = part["names"]
            morse = rows.get("stationary_phase.morse_normalize_family", {})
            berg = rows.get("covariant_calculus.bergman_symbol", {})
            notes.append(f"  {job_name}: {morse.get('calls', 0)}/{morse.get('distinct_args', 0)}, "
                         f"{berg.get('calls', 0)}/{berg.get('distinct_args', 0)}")
    return values, notes


def build_yield(names: dict) -> float:
    """Distinct engine inputs per engine build; 1 when nothing was built."""
    row = names.get("stationary_phase.morse_normalize_family", {})
    return row["distinct_args"] / row["calls"] if row.get("calls") else 1.0


def environment(args) -> dict:
    import numpy

    from toeplitz_forge import _kernels

    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # a checkout export has no history
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
            git_sha = proc.stdout.strip() if proc.returncode == 0 else None
        except OSError:  # no git on this machine
            pass
    digest = hashlib.sha256()
    package = os.path.join(ROOT, "src", "toeplitz_forge")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "backend": _kernels.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="directory for the result record and spans")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure(args, work: str) -> tuple:
    if args.trace:
        workload, _ = set_up(args.workload, args.seed, work)
        untraced = run_for(workload, args.seconds / 2)
        traced, summary = traced_passes(workload, args, work, first=len(untraced))
        values, notes = per_layer(summary, traced, untraced, workload.cli)
        return values, notes, untraced + traced
    samples = [setup_in_child(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    workload, seconds = set_up(args.workload, args.seed, work)
    samples.append(seconds)
    passes = run_for(workload, args.seconds)
    values, notes = end_to_end(passes, samples, workload.cli is None)
    return values, notes, passes


def traced_passes(workload, args, work: str, first: int) -> tuple:
    from layers import Tracer, merge, summarize

    spans_dir = os.path.join(args.out if args.out else work, f"spans-{args.workload}-{args.seed}")
    os.makedirs(spans_dir, exist_ok=True)
    if workload.cli is not None:
        workload.cli.trace_dir = spans_dir
        passes = run_for(workload, args.seconds / 2, first=first)
        workload.cli.trace_dir = None
        summary: dict = {}
        for _job, part in workload.cli.summaries.values():
            merge(summary, part)
        return passes, summary
    tracer = Tracer()
    tracer.install()
    try:
        passes = run_for(workload, args.seconds / 2, tracer=tracer, first=first)
    finally:
        tracer.uninstall()
    dump = tracer.dump()
    if args.out:
        with open(os.path.join(spans_dir, "spans.json"), "w") as fh:
            json.dump(dump, fh)
    return passes, summarize(dump)


def pin_blas_threads() -> None:
    """One BLAS thread here and in every child, set before numpy loads.

    OpenBLAS's extra threads spin while they wait: on a 2-core host they
    doubled the CPU time of a spectral-sweep pass without shortening it, and
    made both follow the load of other guests.  The library's own thread
    pools are not affected.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    pin_blas_threads()
    locate_library()
    work = os.path.join(HERE, "_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        if args.setup_only:
            _, seconds = set_up(args.workload, args.seed, work)
            print(json.dumps({"setup_s": seconds}))
            return 0
        ticks = host_ticks()
        values, notes, passes = measure(args, work)
        if ticks is not None:
            steal, total = (b - a for a, b in zip(ticks, host_ticks()))
            # time the hypervisor gave to other guests; it slows wall-clock metrics
            notes.append(f"host steal during the run: {100.0 * steal / max(total, 1):.1f}% of CPU time")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args)
    spec = per_layer_spec() if args.trace else [(n, u, None) for n, u in END_TO_END]
    failures = [f for p in passes for f in p["failures"]]
    result = {
        "correct": not any(unexpected for _, _, unexpected in failures),
        "attempted": sum(len(p["latencies"]) for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in spec},
    }
    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    for line in notes:
        print(f"# {line}")
    for name, failure, unexpected in sorted(set(failures)):
        print(f"# failed{'' if unexpected else ' (documented defect)'}: {name}: {failure}")
    for name, unit, _ in spec:
        print(f"# {name} = {values[name]:.6g} {unit}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        record = dict(result, environment=env, notes=notes,
                      passes=[{"wall_s": p["wall"], "cpu_s": p["cpu"],
                               "latencies_s": [list(x) for x in zip(p["names"], p["latencies"])]}
                              for p in passes])
        path = os.path.join(args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
