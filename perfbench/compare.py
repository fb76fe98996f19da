"""Compare two sets of benchmark records, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records that ``run.py --out DIR`` writes.  For
every workload and metric this prints the median and quartiles of each
side and the change of the medians.  Records made on different kernel
backends are not comparable: the script refuses them and exits 2.
"""

import glob
import json
import os
import statistics
import sys


def load(directory: str) -> dict:
    """(workload, trace) -> list of records."""
    groups: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        env = record["environment"]
        groups.setdefault((env["workload"], env["trace"]), []).append(record)
    return groups


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    backends = {r["environment"]["backend"] for side in (base, new) for group in side.values() for r in group}
    if len(backends) > 1:
        print(f"refusing to compare across kernel backends: {sorted(backends)}", file=sys.stderr)
        return 2
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"{workload} (trace {trace}): {len(base[key])} base runs, {len(new[key])} new runs")
        for name, meta in base[key][0]["metrics"].items():
            old_q = quartiles([r["metrics"][name]["value"] for r in base[key]])
            new_q = quartiles([r["metrics"][name]["value"] for r in new[key] if name in r["metrics"]])
            change = (new_q[1] - old_q[1]) / old_q[1] if old_q[1] else float("nan")
            print(f"  {name:58s} {old_q[1]:12.6g} [{old_q[0]:.6g}, {old_q[2]:.6g}]"
                  f"  -> {new_q[1]:12.6g} [{new_q[0]:.6g}, {new_q[2]:.6g}]  {change:+.2%} {meta['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
