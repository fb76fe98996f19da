"""The benchmark's three workloads.

Each workload's ``setup(seed, root, work)`` imports the library, builds its
inputs from the seed and returns a ``Workload``: the operations of one
pass, in order, and the operations run once as a warm-up.  The seed picks
coefficients and sample points, never sizes, so every seed does the same
amount of work.  Every operation carries a check of its output; see
README.md for why each workload exists.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")


class Op(NamedTuple):
    """One operation: a CLI job or one checked public call.

    ``check`` judges the output (None when right).  ``verdict`` judges the
    program's own pass/fail report, for CLI jobs; ``known_defect`` marks a
    job whose failing verdict is a documented defect of the program.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    verdict: Optional[Callable[[object], Optional[str]]] = None
    known_defect: bool = False


@dataclass
class Workload:
    ops: list  # one pass, in order
    warmup: list  # run once at the end of set-up
    cli: Optional["CliDefaults"] = None  # set for the workload that runs CLI jobs


# ---------------------------------------------------------------------------
# cli-defaults

# (job name, subcommand arguments, artifact stem).  The plane has no default
# symbols for compose (x3 is a sphere coordinate), so the plane job passes
# plane polynomials of the same shape as the sphere defaults.
CLI_JOBS = (
    ("lemmas-verify", ("lemmas", "verify"), "lemmas"),
    ("symbols-norm", ("symbols", "norm"), "symbols"),
    ("symbols-product", ("symbols", "product"), "symbols"),
    ("symbols-inverse", ("symbols", "inverse"), "symbols"),
    ("symbols-sum", ("symbols", "sum"), "symbols"),
    ("geometry-check", ("geometry", "check"), "geometry"),
    ("phase-expand", ("phase", "expand"), "phase"),
    ("sphere-compose", ("compose",), "compose"),
    ("sphere-bergman", ("bergman",), "bergman"),
    ("sphere-bergman-check", ("bergman-check",), "bergman-check"),
    ("sphere-decay", ("decay",), "decay"),
    ("plane-compose", ("compose", "--geometry", "plane", "--f", "poly:0,0=1.0;1,1=0.5",
                       "--g", "poly:0,0=1.0;1,1=-0.333"), "compose"),
    ("plane-bergman", ("bergman", "--geometry", "plane"), "bergman"),
    ("plane-bergman-check", ("bergman-check", "--geometry", "plane"), "bergman-check"),
)

# The plane sweep fits a slope to roundoff of order 1e-13 and exits 1.
KNOWN_DEFECTS = frozenset({"plane-bergman-check"})

# numeric CSV cells must satisfy |got - reference| <= ATOL + RTOL |reference|
RTOL = 1e-9
ATOL = 1e-12
PHASE_ROUTE_TOL = 1e-8  # the CLI's own Wick/Morse agreement threshold


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= ATOL + RTOL * abs(want)


def compare_csv(text: str, reference: str) -> Optional[str]:
    """Cell-by-cell comparison: numbers within tolerance, text exactly."""
    got, want = text.splitlines(), reference.splitlines()
    if got[:1] != want[:1]:
        return f"header {got[:1]} differs from reference {want[:1]}"
    if len(got) != len(want):
        return f"{len(got) - 1} rows, reference has {len(want) - 1}"
    for r, (g_line, w_line) in enumerate(zip(got[1:], want[1:]), 1):
        g_cells, w_cells = g_line.split(","), w_line.split(",")
        if len(g_cells) != len(w_cells):
            return f"row {r}: {len(g_cells)} cells, reference has {len(w_cells)}"
        for g, w in zip(g_cells, w_cells):
            if g == w:
                continue
            try:
                ok = _close(float(g), float(w))
            except ValueError:
                ok = False
            if not ok:
                return f"row {r}: {g!r} differs from reference {w!r}"
    return None


def phase_amplitude_terms(seed: int, degree: int = 3) -> dict:
    """The amplitude ``phase expand --seed`` draws (same generator, same order)."""
    rng = np.random.default_rng(seed)
    terms = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            terms[(i, j)] = float(np.round(rng.uniform(-1.0, 1.0), 6))
    return terms


def phase_reference(seed: int) -> dict:
    """Expected Wick and Morse coefficients for ``phase expand`` at a seed.

    Both routes are linear in the amplitude, so the reference is the seeded
    combination of the per-monomial responses captured from the seed commit.
    """
    with open(os.path.join(REFERENCE, "phase_basis.json")) as fh:
        basis = json.load(fh)
    terms = phase_amplitude_terms(seed, basis["degree"])
    out = {}
    for route in ("wick", "morse"):
        acc = np.zeros(basis["K"] + 1, dtype=complex)
        for row in basis["monomials"]:
            c = terms[tuple(row["expo"])]
            acc += c * np.array([complex(re, im) for re, im in row[route]])
        out[route] = acc
    return out


def check_phase_csv(text: str, expected: dict) -> Optional[str]:
    lines = text.splitlines()
    if lines[0] != "k,wick_re,wick_im,morse_re,morse_im,error":
        return f"unexpected header {lines[0]!r}"
    if len(lines) - 1 != len(expected["wick"]):
        return f"{len(lines) - 1} rows, expected {len(expected['wick'])}"
    for k, line in enumerate(lines[1:]):
        cells = [float(c) for c in line.split(",")]
        if cells[0] != k:
            return f"row {k}: order {cells[0]}"
        for route, re, im in (("wick", cells[1], cells[2]), ("morse", cells[3], cells[4])):
            want = expected[route][k]
            if not (_close(re, want.real) and _close(im, want.imag)):
                return f"row {k}: {route} {complex(re, im)} differs from reference {want}"
        if not cells[5] <= PHASE_ROUTE_TOL:
            return f"row {k}: route disagreement {cells[5]} above {PHASE_ROUTE_TOL}"
    return None


class CliDefaults:
    """Every subcommand at its defaults, each in a fresh interpreter."""

    def __init__(self, seed: int, root: str, work: str):
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.trace_dir: Optional[str] = None  # set: jobs start through the tracing bootstrap
        self.op_id = ""
        self.summaries: dict = {}  # op id -> (job, span summary), traced jobs only
        self.references = {}
        for job, _, _ in CLI_JOBS:
            if job != "phase-expand":
                with open(os.path.join(REFERENCE, f"{job}.csv")) as fh:
                    self.references[job] = fh.read()
        self.phase = phase_reference(seed)

    def warm_up(self) -> None:
        """A cold import in a fresh interpreter, which every job pays."""
        subprocess.run([sys.executable, "-c", "import toeplitz_forge.cli"],
                       env=self.env, check=True, stdin=subprocess.DEVNULL)

    def _launch(self, job: str, args: tuple, op_id: str) -> int:
        out = os.path.join(self.work, job)
        cli_args = list(args) + ["--seed", str(self.seed), "--out", out]
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "toeplitz_forge.cli"] + cli_args
        else:
            spans = os.path.join(self.trace_dir, f"{op_id}.json")
            cmd = [sys.executable, os.path.join(HERE, "bootstrap.py"), spans, op_id, "--"] + cli_args
        proc = subprocess.run(cmd, env=self.env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if self.trace_dir is not None:
            from layers import summarize

            with open(spans) as fh:
                self.summaries[op_id] = (job, summarize(json.load(fh)))
        return proc.returncode

    def _check(self, job: str, stem: str):
        def check(_rc) -> Optional[str]:
            try:
                with open(os.path.join(self.work, job, f"{stem}.csv")) as fh:
                    text = fh.read()
            except OSError as exc:
                return f"no CSV: {exc.strerror}"
            if job == "phase-expand":
                return check_phase_csv(text, self.phase)
            return compare_csv(text, self.references[job])

        return check

    def _verdict(self, job: str, stem: str):
        def verdict(rc) -> Optional[str]:
            try:
                with open(os.path.join(self.work, job, f"{stem}.json")) as fh:
                    passed = json.load(fh).get("passed")
            except (OSError, ValueError) as exc:
                return f"exit code {rc}, unreadable summary ({exc})"
            if rc != 0 or passed is not True:
                return f"exit code {rc}, passed={passed}"
            return None

        return verdict

    def ops(self) -> list:
        out = []
        for job, args, stem in CLI_JOBS:
            out.append(Op(
                name=job,
                run=lambda job=job, args=args: self._launch(job, args, self.op_id),
                check=self._check(job, stem),
                verdict=self._verdict(job, stem),
                known_defect=job in KNOWN_DEFECTS,
            ))
        return out


def setup_cli_defaults(seed: int, root: str, work: str) -> Workload:
    cli = CliDefaults(seed, root, work)
    cli.warm_up()
    return Workload(ops=cli.ops(), warmup=[], cli=cli)


# ---------------------------------------------------------------------------
# spectral-sweep

SPECTRAL_LEVELS = (8, 16, 32, 64)
DECAY_LEVELS = (8, 12, 16, 20, 24, 28, 32)
BAND = (0.9, 1.1)  # invertibility band of the quantized projector
EIGEN_RESIDUAL = 1e-10
MASS_RTOL = 1e-10
MIRROR_TOL = 1e-9
GRAM_TOL = 1e-10


def beta_masses(N: int, x: Fraction) -> list:
    """Exact masses of each |z^j|^2 over {w <= x}, w = |z|^2/(1+|z|^2).

    The normalized density of z^j on the level-N sphere is Beta(j+1, N-j+1)
    in w, and for integer parameters its CDF is a binomial tail:
    I_x(j+1, N-j+1) = sum_{k > j} C(N+1, k) x^k (1-x)^{N+1-k}.
    """
    n = N + 1
    terms = [Fraction(math.comb(n, k)) * x**k * (1 - x) ** (n - k) for k in range(n + 1)]
    out, tail = [], Fraction(0)
    for j in range(n, 0, -1):  # tail over k >= j
        tail += terms[j]
        out.append(tail)
    out.reverse()  # out[j] = sum_{k >= j+1}, j = 0..N
    return [float(v) for v in out]


def _svd_band(matrix) -> tuple:
    s = np.linalg.svd(np.asarray(matrix), compute_uv=False)
    return float(s.min()), float(s.max())


def setup_spectral_sweep(seed: int, root: str, work: str) -> Workload:
    from toeplitz_forge import covariant_calculus as cc
    from toeplitz_forge import geometry
    from toeplitz_forge import quantization_spectral as qs

    rng = np.random.default_rng(seed)
    sphere, plane = geometry.sphere(), geometry.bargmann()
    sphere_symbol = cc.bergman_symbol(sphere, K=4)
    plane_symbol = cc.bergman_symbol(plane, K=4)

    # multipliers led by x1, x2, x3, each with seeded weight on the other
    # two coordinates (so none is diagonal) and on the lead's square
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    multipliers = []
    for lead in range(3):
        terms = {units[lead]: 1.0, tuple(2 * e for e in units[lead]): float(rng.uniform(-0.5, 0.5))}
        for other in range(3):
            if other != lead:
                terms[units[other]] = float(rng.uniform(-0.5, 0.5))
        multipliers.append((f"x{lead + 1}", terms, sum(abs(c) for c in terms.values())))
    x3_cut = Fraction(rng.choice(["1/4", "1/3", "1/2", "2/3"]))
    x1_cut = Fraction(rng.choice(["1/4", "1/3", "1/2"]))
    decay_cut = Fraction(rng.choice(["1/3", "2/5", "1/2", "3/5"]))

    state: dict = {}

    def level_ops(N: int) -> list:
        u = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
        u /= np.linalg.norm(u)
        mirrored = u * (-1.0) ** np.arange(N + 1)  # z -> -z maps x1 to -x1
        weights = beta_masses(N, (1 - x3_cut) / 2)
        x3_expected = float(np.sum(np.abs(u) ** 2 * np.array(weights)))
        ops = []

        def band_check(key):
            def check(m):
                state[key] = m
                lo, hi = state[key + ("band",)] = _svd_band(m)
                if not (BAND[0] <= lo and hi <= BAND[1]):
                    return f"singular values [{lo}, {hi}] outside {BAND}"
                return None
            return check

        ops.append(Op(f"covariant_matrix:sphere:N={N}",
                      lambda: qs.covariant_matrix(sphere, sphere_symbol, N), band_check(("cov", N))))
        ops.append(Op(f"covariant_matrix:plane:N={N}",
                      lambda: qs.covariant_matrix(plane, plane_symbol, N), band_check(("plane", N))))
        ops.append(Op(f"bergman_gram_defect:N={N}", lambda: qs.bergman_gram_defect(sphere, N),
                      lambda d: None if 0.0 <= d < GRAM_TOL else f"gram defect {d}"))

        def singular_check(which):
            def check(value):
                lo, hi = state[("cov", N, "band")]
                want = lo if which == "min" else hi
                if abs(value - want) > 1e-9 or not BAND[0] <= value <= BAND[1]:
                    return f"{which} singular value {value}, LAPACK gives {want}"
                return None
            return check

        ops.append(Op(f"invertibility_check:N={N}",
                      lambda: qs.invertibility_check(state[("cov", N)]), singular_check("min")))
        ops.append(Op(f"operator_norm:N={N}",
                      lambda: qs.operator_norm(state[("cov", N)]), singular_check("max")))
        for label, terms, bound in multipliers:
            key = ("mult", label, N)

            def hermitian(m, key=key):
                state[key] = m
                defect = m.hermitian_defect()
                return None if defect <= 1e-12 and m.dim == N + 1 else f"hermitian defect {defect}"

            def eigen_check(pairs, key=key, bound=bound):
                a = np.asarray(state[key])
                evals = np.array([p[0] for p in pairs])
                vecs = np.stack([p[1] for p in pairs], axis=1)
                residual = float(np.max(np.abs(a @ vecs - vecs * evals[None, :])))
                if residual > EIGEN_RESIDUAL * max(1.0, float(np.max(np.abs(a)))):
                    return f"eigen residual {residual}"
                if abs(float(np.sum(evals)) - float(np.trace(a).real)) > 1e-10 * len(evals):
                    return "eigenvalues do not sum to the trace"
                if np.max(np.abs(evals)) > bound + 1e-12:
                    return f"eigenvalue beyond sup|f| <= {bound}"
                return None

            ops.append(Op(f"contravariant_matrix:{label}:N={N}",
                          lambda terms=terms: qs.contravariant_matrix(sphere, terms, N), hermitian))
            ops.append(Op(f"eigenpairs:{label}:N={N}",
                          lambda key=key: qs.eigenpairs(state[key]), eigen_check))
        ops.append(Op(
            f"forbidden_mass:x3:N={N}",
            lambda: qs.forbidden_mass(sphere, N, u, ("x3", ">=", x3_cut)),
            lambda m: None if abs(m - x3_expected) <= MASS_RTOL * x3_expected
            else f"x3 mass {m}, Beta closed form {x3_expected}",
        ))

        def x1_store(m):
            state[("x1", N)] = m
            return None if 0.0 <= m <= 1.0 else f"x1 mass {m} outside [0, 1]"

        ops.append(Op(f"forbidden_mass:x1:N={N}",
                      lambda: qs.forbidden_mass(sphere, N, u, f"x1 >= {x1_cut}"), x1_store))
        ops.append(Op(
            f"forbidden_mass:x1-mirror:N={N}",
            lambda: qs.forbidden_mass(sphere, N, mirrored, f"x1 <= {-x1_cut}"),
            lambda m: None if abs(m - state[("x1", N)]) <= MIRROR_TOL
            else f"mirrored x1 mass {m} differs from {state[('x1', N)]}",
        ))
        return ops

    x = (1 - decay_cut) / 2
    decay_expected = {N: beta_masses(N, x)[N // 2] for N in DECAY_LEVELS}
    slope_expected = float(np.polyfit(list(DECAY_LEVELS),
                                      [-math.log(decay_expected[N]) for N in DECAY_LEVELS], 1)[0])

    def decay_check(report) -> Optional[str]:
        for N, _ev, _target, mass in report.rows:
            if abs(mass - decay_expected[N]) > MASS_RTOL * decay_expected[N]:
                return f"N={N}: mass {mass}, Beta closed form {decay_expected[N]}"
        if abs(report.rate - slope_expected) > 1e-9:
            return f"rate {report.rate}, closed-form fit {slope_expected}"
        return None

    warmup = level_ops(SPECTRAL_LEVELS[0])
    ops = [op for N in SPECTRAL_LEVELS for op in level_ops(N)]
    ops.append(Op("decay_report:x3",
                  lambda: qs.decay_report(sphere, {(0, 0, 1): 1.0}, 0.0, f"x3 >= {decay_cut}",
                                          DECAY_LEVELS),
                  decay_check))
    return Workload(ops=ops, warmup=warmup)


# ---------------------------------------------------------------------------
# exact-symbolic

# (dimension, ell).  The simplex behind hull_membership costs 2-4x more or
# less depending on the point, and in dimension 5 reaches 20 ms, where it
# would decide the tail latency by seed; dimensions 3 and 4 stay below the
# deterministic stationary-phase operations that set op_tail_s.
HULL_SLOTS = ((3, 8), (3, 12), (4, 8), (4, 10))
# (n, d, ell, m): the lemma has no free inputs beyond its sizes
HARD_SUM_SLOTS = ((2, 1, 60, 8), (3, 1, 40, 10), (3, 2, 60, 12), (4, 0, 30, 8), (4, 2, 40, 12))
INDEX_SAMPLES = 8
SYMBOL_K = 6
# the summation contract is checked at many levels; these cheap calls, whose
# cost does not depend on the seed, also hold the median operation
SUMMATION_LEVELS = (20, 30, 40, 60, 80, 120, 160, 240, 320, 480)
PHASE_ORDERS = (3, 4, 5, 6)  # K; the amplitude has total degree 2K


def setup_exact_symbolic(seed: int, root: str, work: str) -> Workload:
    from toeplitz_forge import combinatorics as cb
    from toeplitz_forge import function_spaces as fs
    from toeplitz_forge import stationary_phase as sp
    from toeplitz_forge.series import PowerSeries

    rng = np.random.default_rng(seed)
    ops = []

    def holds(res) -> Optional[str]:
        if res.holds and res.value <= res.bound:
            return None
        return f"value {res.value} above bound {res.bound}"

    # hull membership: per slot, seeded points with all, two and one nonzero
    # entries, so the support sizes (and the solver's work) do not depend
    # on the seed while both verdicts occur
    for n, ell in HULL_SLOTS:
        full = [1 + int(v) for v in rng.multinomial(ell - n, np.full(n, 1.0 / n))]
        pair = [0] * n
        first, second = (int(i) for i in rng.choice(n, size=2, replace=False))
        pair[first] = int(rng.integers(1, ell))
        pair[second] = ell - pair[first]
        single = [0] * n
        single[int(rng.integers(n))] = ell
        for t in (full, pair, single):
            expected = sum(1 for v in t if v) >= 2  # on the ell-plane by construction

            def hull_check(res, expected=expected):
                return None if res.holds == expected else f"membership {res.holds}, closed form {expected}"

            ops.append(Op(f"hull_membership:{t}:{ell}",
                          lambda t=tuple(t), ell=ell: cb.hull_membership(t, ell), hull_check))
    for _ in range(INDEX_SAMPLES):
        a = tuple(int(v) for v in rng.integers(0, 9, size=4))
        b = tuple(int(v) for v in rng.integers(1, 9, size=4))
        ops.append(Op(f"binom_multi_bound:{a}:{b}", lambda a=a, b=b: cb.binom_multi_bound(a, b), holds))
    for _ in range(INDEX_SAMPLES):
        mu = tuple(int(v) for v in rng.integers(0, 11, size=4))
        nu = tuple(int(rng.integers(0, m + 1)) for m in mu)
        ops.append(Op(f"check_binomial_domination:{mu}:{nu}",
                      lambda mu=mu, nu=nu: cb.check_binomial_domination(mu, nu), holds))
    for n, d, ell, m in HARD_SUM_SLOTS:
        ops.append(Op(f"lem_hard_sum:{n},{d},{ell},{m}",
                      lambda n=n, d=d, ell=ell, m=m: cb.lem_hard_sum(n, d, ell, m, exact=True), holds))

    # symbol classes: float constants, exact rational constants and
    # one-variable series coefficients, each paired with a second symbol
    domain = fs.Domain.interval(-0.5, 0.5)
    r = R = 2.0
    scale = [R**k * math.factorial(k) for k in range(SYMBOL_K + 1)]

    def float_coeffs():
        return [s * float(rng.uniform(0.3, 1.0)) for s in scale]

    def exact_coeffs():
        return [Fraction(int(s)) * Fraction(int(rng.integers(3, 10)), 10) for s in scale]

    def series_coeffs():
        out = []
        for s in scale:
            terms = {(i,): s * float(rng.uniform(-0.1, 0.1)) for i in range(1, 9)}
            terms[(0,)] = s * float(rng.uniform(0.5, 1.0))
            out.append(PowerSeries.from_terms(terms, 1, 8))
        return out

    for kind, make in (("float", float_coeffs), ("exact", exact_coeffs), ("series", series_coeffs)):
        coeffs = make()
        sym = fs.make_symbol(coeffs, domain, r=r, R=R, m=4)
        other = fs.make_symbol(make(), domain, r=r, R=R, m=4)
        for N in SUMMATION_LEVELS:
            top = min(SYMBOL_K, math.floor(math.e * N / (3 * R)))

            def sum_check(res, coeffs=coeffs, N=N, top=top, kind=kind):
                if not res.sup_abs <= res.uniform_bound * (1 + 1e-12):
                    return f"sup {res.sup_abs} above uniform bound {res.uniform_bound}"
                if kind == "exact" and res.values != sum(coeffs[k] / Fraction(N) ** k for k in range(top + 1)):
                    return f"exact sum {res.values} differs from the rational partial sum"
                return None

            ops.append(Op(f"summation:{kind}:N={N}", lambda sym=sym, N=N: fs.summation(sym, N), sum_check))
        ops.append(Op(f"star_inverse_report:{kind}", lambda sym=sym: fs.star_inverse_report(sym),
                      lambda rep: None if rep.holds else f"estimate {rep.estimate} above {rep.paper_bound}"))
        ops.append(Op(f"product_bound_check:{kind}", lambda sym=sym, other=other: fs.product_bound_check(sym, other),
                      lambda rep: None if rep["holds"] else f"product {rep['product_norm']} above {rep['bound']}"))

    # stationary phase: both routes on a seeded amplitude, for both phases
    for geometry in ("plane", "sphere"):
        for K in PHASE_ORDERS:
            order = 2 * K + 2
            if geometry == "sphere":
                u = PowerSeries.variable(0, 2, order)
                ubar = PowerSeries.variable(1, 2, order)
                phase = -((1 + u * ubar).log())
            else:
                phase = PowerSeries.from_terms({(1, 1): -1.0}, 2, order)
            terms = {(i, j): float(rng.uniform(-1.0, 1.0))
                     for i in range(2 * K + 1) for j in range(2 * K + 1 - i)}
            amplitude = PowerSeries.from_terms(terms, 2, order)
            key = (geometry, K)
            routes: dict = {}

            def keep(res, key=key, K=K):
                routes[key] = res
                return None if len(res.coeffs) == K + 1 else f"{len(res.coeffs)} coefficients for K={K}"

            def agree(res, key=key):
                gap = max(abs(complex(w) - complex(m)) for w, m in zip(routes[key].coeffs, res.coeffs))
                return None if gap < PHASE_ROUTE_TOL else f"Wick and Morse differ by {gap}"

            ops.append(Op(f"wick_expand:{geometry}:K={K}",
                          lambda p=phase, a=amplitude, K=K: sp.wick_expand(p, a, K), keep))
            ops.append(Op(f"morse_expand:{geometry}:K={K}",
                          lambda p=phase, a=amplitude, K=K: sp.morse_expand(p, a, K), agree))
    return Workload(ops=ops, warmup=list(ops))


SETUP = {
    "cli-defaults": setup_cli_defaults,
    "spectral-sweep": setup_spectral_sweep,
    "exact-symbolic": setup_exact_symbolic,
}
