"""Time the conv_pair kernel, the truncated series product and two callers.

Each time is the best of five calls after one warm-up call.

    python3 benchmarks/bench_kernels.py
"""

import timeit

import numpy as np


def _workloads():
    from toeplitz_forge import _kernels, covariant_calculus as cc
    from toeplitz_forge import geometry, quantization_spectral as qs
    from toeplitz_forge.series import PowerSeries, _degree_grid

    rng = np.random.default_rng(1)
    a = rng.standard_normal((17, 17, 9, 9)) + 1j * rng.standard_normal((17, 17, 9, 9))
    b = rng.standard_normal((17, 17, 9, 9)) + 1j * rng.standard_normal((17, 17, 9, 9))
    # operands of the K=4 engines (pair cap 10, param cap 8): on the sphere
    # the transported density has 115 live pair blocks, on the plane 1
    sph_eng = cc._engine(geometry.sphere(), 10, 8)
    pl_eng = cc._engine(geometry.bargmann(), 10, 8)
    # dense two-variable series at the orders the stationary-phase routes use
    series = {}
    for order in (8, 16, 24):
        c = rng.standard_normal((order + 1,) * 2) + 1j * rng.standard_normal((order + 1,) * 2)
        c[_degree_grid(2, order) > order] = 0.0
        series[order] = PowerSeries(c, order)
    sph = geometry.sphere()
    f = cc.symbol_from_euclid_poly(sph, [{(0, 0, 0): 1.0, (0, 0, 1): 0.5}], order=12)
    g = cc.symbol_from_euclid_poly(sph, [{(0, 0, 1): 1.0}], order=12)
    berg = cc.bergman_symbol(sph, K=4)
    jobs = {
        "conv_pair 17^2x9^2": lambda: _kernels.conv_pair(a, b, 16, 8),
        "conv_pair sphere 11^2x9^2": lambda: _kernels.conv_pair(
            sph_eng.z_powers[4].coeffs, sph_eng.rho_jac.coeffs, 10, 8),
        "conv_pair sphere diag": lambda: _kernels.conv_pair(
            sph_eng.z_powers[4].coeffs, sph_eng.rho_jac.coeffs, 10, 8, diag_only=True),
        "conv_pair plane 11^2x9^2": lambda: _kernels.conv_pair(
            pl_eng.z_powers[4].coeffs, pl_eng.x_powers[4].coeffs, 10, 8),
    }
    for order, s in series.items():
        jobs[f"PowerSeries 2-var order {order}"] = lambda s=s: s * s
    jobs.update({
        "sharp_product K=3": lambda: cc.sharp_product(f, g, 3),
        "covariant_matrix N=32": lambda: qs.covariant_matrix(sph, berg, 32),
    })
    return jobs


def main():
    jobs = _workloads()
    width = max(len(k) for k in jobs)
    for name, fn in jobs.items():
        fn()  # warm up caches
        best = min(timeit.repeat(fn, number=1, repeat=5))
        print(f"{name:<{width}}  {best * 1e3:>9.2f} ms")


if __name__ == "__main__":
    main()
