"""Time the kernels on each available backend (numba and the numpy fallback).

The backend is fixed at import time by TOEPLITZ_FORGE_NO_NUMBA, so this
script relaunches itself once per backend and merges the timings.  Each
time is the best of five calls after one warm-up call.  When numba is not
installed only the numpy column is printed.

    python3 benchmarks/bench_kernels.py
"""

import json
import os
import subprocess
import sys
import timeit

import numpy as np


def _workloads():
    from toeplitz_forge import _kernels, covariant_calculus as cc
    from toeplitz_forge import geometry, quantization_spectral as qs

    rng = np.random.default_rng(1)
    a = rng.standard_normal((17, 17, 9, 9)) + 1j * rng.standard_normal((17, 17, 9, 9))
    b = rng.standard_normal((17, 17, 9, 9)) + 1j * rng.standard_normal((17, 17, 9, 9))
    # operands of the K=4 engines (pair cap 10, param cap 8): on the sphere
    # the transported density has 115 live pair blocks, on the plane 1
    sph_eng = cc._engine(geometry.sphere(), 10, 8)
    pl_eng = cc._engine(geometry.bargmann(), 10, 8)
    box = rng.standard_normal((17, 17)) + 1j * rng.standard_normal((17, 17))
    herm = rng.standard_normal((33, 33)) + 1j * rng.standard_normal((33, 33))
    herm = herm + herm.conj().T
    sph = geometry.sphere()
    f = cc.symbol_from_euclid_poly(sph, [{(0, 0, 0): 1.0, (0, 0, 1): 0.5}], order=12)
    g = cc.symbol_from_euclid_poly(sph, [{(0, 0, 1): 1.0}], order=12)
    berg = cc.bergman_symbol(sph, K=4)
    return {
        "conv_pair 17^2x9^2": lambda: _kernels.conv_pair(a, b, 16, 8),
        "conv_pair sphere 11^2x9^2": lambda: _kernels.conv_pair(
            sph_eng.z_powers[4].coeffs, sph_eng.rho_jac.coeffs, 10, 8),
        "conv_pair sphere diag": lambda: _kernels.conv_pair(
            sph_eng.z_powers[4].coeffs, sph_eng.rho_jac.coeffs, 10, 8, diag_only=True),
        "conv_pair plane 11^2x9^2": lambda: _kernels.conv_pair(
            pl_eng.z_powers[4].coeffs, pl_eng.x_powers[4].coeffs, 10, 8),
        "conv_trunc_2d 17^2": lambda: _kernels.conv_trunc_2d(box, box, 16),
        "jacobi_eigh 33x33": lambda: _kernels.jacobi_eigh(herm),
        "sharp_product K=3": lambda: cc.sharp_product(f, g, 3),
        "covariant_matrix N=32": lambda: qs.covariant_matrix(sph, berg, 32),
    }


def _run_inner():
    from toeplitz_forge import _kernels

    results = {}
    for name, fn in _workloads().items():
        fn()  # warm up (JIT compilation / caches)
        reps = timeit.repeat(fn, number=1, repeat=5)
        results[name] = min(reps)
    print(json.dumps({"backend": _kernels.backend_name(), "timings": results}))


def main():
    if "--inner" in sys.argv:
        _run_inner()
        return
    rows = {}
    for flag in ("", "1"):
        if "numpy" in rows:  # without numba the default run was already numpy
            break
        env = dict(os.environ, TOEPLITZ_FORGE_NO_NUMBA=flag)
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--inner"],
            env=env, capture_output=True, text=True, check=True,
        )
        doc = json.loads(out.stdout.strip().splitlines()[-1])
        rows[doc["backend"]] = doc["timings"]
    numba_t = rows.get("numba")
    numpy_t = rows["numpy"]
    width = max(len(k) for k in numpy_t)
    if numba_t is None:
        print("numba is not installed; numpy backend only")
        print(f"{'kernel':<{width}}  {'numpy':>10}")
        for name, tp in numpy_t.items():
            print(f"{name:<{width}}  {tp * 1e3:>8.2f}ms")
        return
    print(f"{'kernel':<{width}}  {'numba':>10}  {'numpy':>10}  {'speedup':>8}")
    for name in numpy_t:
        tn, tp = numba_t[name], numpy_t[name]
        print(f"{name:<{width}}  {tn * 1e3:>8.2f}ms  {tp * 1e3:>8.2f}ms  {tp / tn:>7.1f}x")


if __name__ == "__main__":
    main()
