"""Time the conv_pair kernel, the truncated series product (dense and
dense times sparse), series composition, both Morse flattenings, the
Wick contraction, the composition engine's build and two of its
callers, the sphere kernel quadrature behind covariant_matrix and
bergman_gram_defect, the exact moment path of contravariant_matrix
on both models (on the sphere also at N = 600, where the norms fall
below the float range) and of covariant_matrix (the plane, and the
sphere without a cutoff), and the symbol class: a symbol-norm certificate, a covariant symbol's
norm_estimate, and the Cauchy product and star inverse at K = 6.

Each time is the best of five calls after one warm-up call.

    python3 benchmarks/bench_kernels.py
"""

import math
import sys
import timeit
from pathlib import Path

import numpy as np

# time this checkout's package, not an installed one
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def _workloads():
    from toeplitz_forge import _kernels, covariant_calculus as cc
    from toeplitz_forge import function_spaces as fs
    from toeplitz_forge import geometry, quantization_spectral as qs
    from toeplitz_forge import stationary_phase as sp
    from toeplitz_forge.series import PowerSeries, _degree_grid

    rng = np.random.default_rng(1)
    a = rng.standard_normal((17, 17, 9, 9)) + 1j * rng.standard_normal((17, 17, 9, 9))
    b = rng.standard_normal((17, 17, 9, 9)) + 1j * rng.standard_normal((17, 17, 9, 9))
    # operands of the K=4 engines (pair cap 10, param cap 8): on the sphere
    # the density rho_jac has 60 live pair blocks of the 66 within the
    # pair cap, on the plane 1
    sph_eng = cc._engine(geometry.sphere(), 10, 8)
    pl_eng = cc._engine(geometry.bargmann(), 10, 8)
    # dense two-variable series at the orders the stationary-phase routes use
    series = {}
    for order in (8, 16, 24):
        c = rng.standard_normal((order + 1,) * 2) + 1j * rng.standard_normal((order + 1,) * 2)
        c[_degree_grid(2, order) > order] = 0.0
        series[order] = PowerSeries(c, order)
    sph = geometry.sphere()
    f = cc.symbol_from_poly(sph, [{(0, 0, 0): 1.0, (0, 0, 1): 0.5}], order=12)
    g = cc.symbol_from_poly(sph, [{(0, 0, 1): 1.0}], order=12)
    berg = cc.bergman_symbol(sph, K=4)
    c2c = cc.symbol_from_poly(sph, [{(0, 0, 0): 1.0, (0, 0, 1): 0.5}], order=8)
    # a multiplier of the spectral sweep's shape: a lead coordinate, its
    # square and the other two coordinates
    mult = {(1, 0, 0): 1.0, (2, 0, 0): 0.3, (0, 1, 0): -0.2, (0, 0, 1): 0.4}
    # its plane counterpart in z and zbar: Re z, |z|^2 and one cubic term
    plane_mult = {(1, 0): 0.5, (0, 1): 0.5, (1, 1): 0.3, (2, 1): 0.1}
    plane = geometry.bargmann()
    plane_berg = cc.bergman_symbol(plane, K=4)
    x1 = cc.symbol_from_poly(sph, [{(1, 0, 0): 1.0}], order=4)
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
    # a dense source and two arguments of valuation one, at the order
    # morse_expand composes with at K = 6
    src = rng.standard_normal((15, 15)) + 1j * rng.standard_normal((15, 15))
    src[_degree_grid(2, 14) > 14] = 0.0
    arg_mask = (_degree_grid(2, 14) < 1) | (_degree_grid(2, 14) > 14)
    args = []
    for _ in range(2):
        c = rng.standard_normal((15, 15)) + 1j * rng.standard_normal((15, 15))
        c[arg_mask] = 0.0
        args.append(PowerSeries(c, 14))
    jobs["substitute 2-var order 14"] = lambda: PowerSeries(src, 14).substitute(args)
    # the sphere phase -log(1 + u ubar) at order K + 2
    u, ubar = PowerSeries.variable(0, 2, 14), PowerSeries.variable(1, 2, 14)
    sphere_phase = sp.PhaseData.from_series(-(1 + u * ubar).log())
    jobs["morse_normalize K=12"] = lambda: sp.morse_normalize(sphere_phase, 12)
    # morse_expand at K = 6 flattens to order 14, then transports a dense
    # amplitude of order 12 through one composition
    amp = rng.standard_normal((15, 15)) + 1j * rng.standard_normal((15, 15))
    amp[_degree_grid(2, 14) > 12] = 0.0
    amplitude = PowerSeries(amp, 14)
    jobs["morse_expand sphere K=6"] = lambda: sp.morse_expand(sphere_phase, amplitude, 6)
    jobs["wick_expand sphere K=6"] = lambda: sp.wick_expand(sphere_phase, amplitude, 6)
    # the product wick_expand takes at K = 6: a dense order-36 term times
    # the sphere remainder, six nonzeros, on the right
    dense36 = rng.standard_normal((37, 37)) + 1j * rng.standard_normal((37, 37))
    dense36[_degree_grid(2, 36) > 36] = 0.0
    term36 = PowerSeries(dense36, 36)
    rem36 = sp._pad_to_order(sphere_phase.remainder, 36)
    jobs["PowerSeries 2-var order 36 dense x sparse"] = lambda: term36 * rem36
    # the phase family of the K=4 sphere engine (pair cap 10, param cap 8)
    pu, pubar, dx, dzb = sp.PairFamily.variables(10, 8)
    family = sph.phase_phi1(dx, dx + pu, dzb + pubar, dzb)
    jobs["morse_normalize_family sphere (10, 8)"] = lambda: sp.morse_normalize_family(family)
    jobs.update({
        # the K=4 sphere engine built past the engine cache
        "_build_engine sphere (10, 8) cold": lambda: cc._build_engine(sph, 10, 8),
        "sharp_product K=3": lambda: cc.sharp_product(f, g, 3),
        "contravariant_to_covariant K=2 order 8": lambda: cc.contravariant_to_covariant(c2c, 2),
        # at N = 8 the quadrature's fixed cost (node set-up, the amplitude
        # over every live pair) dominates; at N = 64 the kernel power and
        # the mode recurrence
        "covariant_matrix N=8": lambda: qs.covariant_matrix(sph, berg, 8),
        "covariant_matrix N=32": lambda: qs.covariant_matrix(sph, berg, 32),
        "covariant_matrix N=64": lambda: qs.covariant_matrix(sph, berg, 64),
        # the exact moment route: the plane's Bergman symbol, and x1,
        # which the sphere quadrature refuses, without a cutoff
        "covariant_matrix plane N=64": lambda: qs.covariant_matrix(plane, plane_berg, 64),
        "covariant_matrix sphere x1 uncut N=64": lambda: qs.covariant_matrix(
            sph, x1, 64, eps=math.inf),
        "bergman_gram_defect N=8": lambda: qs.bergman_gram_defect(sph, 8),
        "bergman_gram_defect N=64": lambda: qs.bergman_gram_defect(sph, 64),
        "contravariant_matrix sphere N=64": lambda: qs.contravariant_matrix(sph, mult, 64),
        "contravariant_matrix sphere N=600": lambda: qs.contravariant_matrix(sph, mult, 600),
        "contravariant_matrix plane N=64": lambda: qs.contravariant_matrix(plane, plane_mult, 64),
    })
    # one-variable order-8 symbols at K = 6 on [-1/2, 1/2], a_k of size
    # R^k k!, as the exact-symbolic workload builds them
    half = fs.Domain.interval(-0.5, 0.5)
    syms = []
    for _ in range(2):
        coeffs = []
        for k in range(7):
            terms = {(i,): float(rng.uniform(-0.1, 0.1)) for i in range(1, 9)}
            terms[(0,)] = float(rng.uniform(0.5, 1.0))
            coeffs.append(PowerSeries.from_terms(terms, 1, 8) * (2.0**k * math.factorial(k)))
        syms.append(fs.make_symbol(coeffs, half, r=2.0, R=2.0, m=4))
    jobs.update({
        "estimate_symbol_norm 1-var order 8 K=6": lambda: fs.estimate_symbol_norm(syms[0]),
        "norm_estimate sphere Bergman K=4": lambda: berg.norm_estimate(),
        "cauchy_product 1-var order 8 K=6": lambda: fs.cauchy_product(*syms),
        "star_inverse 1-var order 8 K=6": lambda: fs.star_inverse(syms[0]),
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
