"""Capture the cli-defaults reference outputs from the current checkout.

Run from the checkout root, at the commit whose outputs are the reference:

    python3 perfbench/capture_reference.py

Writes ``perfbench/reference/<job>.csv`` for every CLI job whose CSV does
not depend on the seed, and ``perfbench/reference/phase_basis.json`` with
the Wick and Morse coefficients of ``phase expand`` for each amplitude
monomial, from which run.py rebuilds the reference for any seed.
"""

import json
import os
import shutil
import subprocess
import sys

from workloads import CLI_JOBS, HERE, KNOWN_DEFECTS, REFERENCE

PHASE_K = 3  # the defaults of ``phase expand``
PHASE_DEGREE = 3


def main() -> int:
    root = os.path.dirname(HERE)
    work = os.path.join(HERE, "_work", "capture")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    os.makedirs(REFERENCE, exist_ok=True)
    try:
        for job, args, stem in CLI_JOBS:
            if job == "phase-expand":
                continue
            out = os.path.join(work, job)
            proc = subprocess.run([sys.executable, "-m", "toeplitz_forge.cli", *args, "--out", out],
                                  env=env, stdin=subprocess.DEVNULL)
            if proc.returncode != 0 and job not in KNOWN_DEFECTS:
                print(f"{job}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            shutil.copyfile(os.path.join(out, f"{stem}.csv"), os.path.join(REFERENCE, f"{job}.csv"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sys.path.insert(0, os.path.join(root, "src"))
    from toeplitz_forge import stationary_phase as sp
    from toeplitz_forge.series import PowerSeries

    order = max(2 * PHASE_K + 2, PHASE_DEGREE)
    phase = PowerSeries.from_terms({(1, 1): -1.0}, 2, order)  # the plane, the default geometry
    rows = []
    for i in range(PHASE_DEGREE + 1):
        for j in range(PHASE_DEGREE + 1 - i):
            amplitude = PowerSeries.from_terms({(i, j): 1.0}, 2, order)
            row = {"expo": [i, j]}
            for route, expand in (("wick", sp.wick_expand), ("morse", sp.morse_expand)):
                coeffs = expand(phase, amplitude, PHASE_K).coeffs
                row[route] = [[complex(c).real, complex(c).imag] for c in coeffs]
            rows.append(row)
    with open(os.path.join(REFERENCE, "phase_basis.json"), "w") as fh:
        json.dump({"K": PHASE_K, "degree": PHASE_DEGREE, "geometry": "plane", "monomials": rows}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
