"""Sharp-product calculus: node frames, composition, inversion, brackets."""

import dataclasses
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toeplitz_forge import constants, covariant_calculus as cc, geometry
from toeplitz_forge import function_spaces as fs
from toeplitz_forge.series import PowerSeries
from toeplitz_forge.stationary_phase import wick_expand

PLANE = geometry.BargmannModel()
SPHERE = geometry.SphereModel()


def node_values(symbol, k):
    """Coefficient k restricted to the diagonal grid."""
    return symbol.coeffs[:, k, 0, 0]


def masked(block, deg):
    """Slice a jet block to total degree <= deg (quotient-ring comparison)."""
    b = np.array(block[: deg + 1, : deg + 1], dtype=complex)
    grid = np.add.outer(np.arange(deg + 1), np.arange(deg + 1))
    b[grid > deg] = 0.0
    return b


# -- node grids and frames ----------------------------------------------------


def test_node_grids():
    nodes = cc.node_grid(SPHERE)
    assert len(nodes) == 12
    theta = 2.0 * np.arctan(np.abs(nodes))
    want = (np.arange(12) + 0.5) * np.pi / 12
    assert np.allclose(theta, want, atol=1e-14)
    assert np.all(np.diff(np.abs(nodes)) > 0)
    plane_nodes = cc.node_grid(PLANE)
    assert len(plane_nodes) == 1 and plane_nodes[0] == 0


@given(
    st.complex_numbers(max_magnitude=0.3, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=11),
)
@settings(max_examples=60, deadline=None)
def test_frame_roundtrip(a, j):
    node = cc.node_grid(SPHERE)[j]
    x = cc.frame_to_chart(SPHERE, node, a)
    back = cc.chart_to_frame(SPHERE, node, x)
    assert abs(complex(back) - a) <= 1e-12 * (1 + abs(a))


def test_frame_bar_is_conjugate_twin():
    # on the real locus zbar = conj(x) the two offset maps must agree
    node = cc.node_grid(SPHERE)[9]
    x = 0.4 + 0.2j
    a = cc.chart_to_frame(SPHERE, node, x)
    bbar = cc.chart_to_frame_bar(SPHERE, node, np.conj(x))
    assert abs(np.conj(complex(a)) - complex(bbar)) <= 1e-14


def test_phase_cocycle_invariance():
    # Phi1 built from frame offsets at a node equals Phi1 at the global
    # points: the potential cocycle telescopes out of the four-point sum
    node = cc.node_grid(SPHERE)[8]
    rng = np.random.default_rng(5)
    for _ in range(5):
        a, b, c, d = (complex(*rng.uniform(-0.1, 0.1, 2)) for _ in range(4))
        x = cc.frame_to_chart(SPHERE, node, a)
        y = cc.frame_to_chart(SPHERE, node, b)
        # anti-offsets map through the inverse of chart_to_frame_bar
        wbar = (c + np.conj(node)) / (1.0 - node * c)
        zbar = (d + np.conj(node)) / (1.0 - node * d)
        got = SPHERE.phase_phi1(x, y, wbar, zbar)
        want = SPHERE.phase_phi1(a, b, c, d)
        assert abs(complex(got) - complex(want)) <= 1e-12


# -- builders -----------------------------------------------------------------


def test_euclid_symbol_node_values():
    x3 = cc.symbol_from_poly(SPHERE, [{(0, 0, 1): 1.0}])
    r2 = np.abs(x3.nodes) ** 2
    want = (1.0 - r2) / (1.0 + r2)  # x3 of the unit-sphere embedding
    assert np.max(np.abs(node_values(x3, 0) - want)) == 0.0
    assert x3.rotation_invariant
    x2 = cc.symbol_from_poly(SPHERE, [{(0, 1, 0): 1.0}])
    assert not x2.rotation_invariant
    assert np.max(np.abs(node_values(x2, 0))) <= 1e-15  # x2 = 0 on the meridian


def test_euclid_jets_match_exact_evaluator():
    sym = cc.symbol_from_poly(
        SPHERE, [{(1, 0, 1): 0.5, (0, 0, 2): 1.0}, {(0, 1, 0): 1.0j}]
    )
    rng = np.random.default_rng(2)
    for i in (0, 5, 11):
        node = sym.nodes[i]
        for _ in range(3):
            a = complex(*rng.uniform(-0.06, 0.06, 2))
            bb = complex(*rng.uniform(-0.06, 0.06, 2))
            x = cc.frame_to_chart(SPHERE, node, a)
            zbar = (bb + np.conj(node)) / (1.0 - node * bb)
            for k in range(2):
                jet = complex(sym.jet_eval(i, {k: 1.0}, a, bb))
                exact = complex(sym.value({k: 1.0}, x, zbar))
                assert abs(jet - exact) <= 1e-9


def test_jets_value_sums_located_node_jets():
    # without the exact evaluator, value() (the weighted sum the
    # quadratures use) reads the jet of the node each point is located at
    full = cc.symbol_from_poly(
        SPHERE, [{(1, 0, 1): 0.5, (0, 0, 2): 1.0}, {(0, 1, 0): 1.0j}]
    )
    sym = dataclasses.replace(full, exact=None)
    rng = np.random.default_rng(3)
    nodes = sym.nodes[rng.integers(0, 12, 40)]
    a = rng.uniform(-0.05, 0.05, 40) + 1j * rng.uniform(-0.05, 0.05, 40)
    bb = rng.uniform(-0.05, 0.05, 40) + 1j * rng.uniform(-0.05, 0.05, 40)
    x = cc.frame_to_chart(SPHERE, nodes, a).reshape(5, 8)
    zbar = ((bb + np.conj(nodes)) / (1.0 - nodes * bb)).reshape(5, 8)
    idx, fa, fb = cc.frame_pair_offsets(sym, x, zbar)
    want = [np.array([sym.jet_eval(i, {k: 1.0}, u, v) for i, u, v in zip(idx.ravel(), fa.ravel(), fb.ravel())])
            .reshape(x.shape) for k in range(2)]
    for k in range(2):
        got = sym.value({k: 1.0}, x, zbar)
        assert got.shape == x.shape
        assert np.max(np.abs(got - want[k])) <= 1e-13 * np.max(np.abs(want[k]))
        assert np.max(np.abs(got - full.value({k: 1.0}, x, zbar))) <= 1e-7
    mixed = sym.value({0: 1.0, 1: 0.25}, x, zbar)
    assert np.max(np.abs(mixed - (want[0] + 0.25 * want[1]))) <= 1e-13 * np.max(np.abs(want[0]))
    # plane jets are the polynomials themselves; the points broadcast
    plane = dataclasses.replace(cc.symbol_from_poly(PLANE, [{(1, 1): 1.0, (0, 2): 0.5}]),
                                exact=None)
    x, zbar = np.linspace(-1, 1, 3)[:, None] + 0.5j, np.linspace(-2, 2, 4)[None, :]
    assert np.max(np.abs(plane.value({0: 1.0}, x, zbar) - (x * zbar + 0.5 * zbar**2))) <= 1e-15


def test_pullback_jets_stay_tame_at_pole_nodes():
    # normal frames keep unit convergence radius even where the affine
    # chart coordinate is ~15; coefficients must stay O(1)
    x3 = cc.symbol_from_poly(SPHERE, [{(0, 0, 1): 1.0}])
    top = np.max(np.abs(x3.coeffs[11, 0]))
    assert top <= 2.5


def test_overlap_defect_small():
    x3 = cc.symbol_from_poly(SPHERE, [{(0, 0, 1): 1.0}])
    assert cc.overlap_defect(x3) < 1e-9
    one = cc.unit_covariant(PLANE)
    assert cc.overlap_defect(one) == 0.0


def test_plane_poly_degree_guard():
    with pytest.raises(ValueError):
        cc.symbol_from_poly(PLANE, [{(5, 5): 1.0}], order=6)
    with pytest.raises(ValueError):  # one node at the origin: no grid to refine
        cc.symbol_from_poly(PLANE, [{(0, 0): 1.0}], node_count=24)
    with pytest.raises(ValueError, match="need 2 entries"):
        cc.symbol_from_poly(PLANE, [{(0, 0, 1): 1.0}])


def test_rotation_invariant_evaluation():
    x3 = cc.symbol_from_poly(SPHERE, [{(0, 0, 2): 1.0}])
    # invariance lets the locator derotate: values off the meridian match
    x = 0.3 * np.exp(1.1j)
    zbar = np.conj(0.32 * np.exp(1.05j))
    idx, a, bb = cc.frame_pair_offsets(x3, x, zbar)
    jet = complex(x3.jet_eval(int(idx), {0: 1.0}, a, bb))
    exact = complex(x3.value({0: 1.0}, x, zbar))
    assert abs(jet - exact) <= 1e-10


# -- sharp product: flat-model oracles ---------------------------------------


def test_bargmann_wbar_sharp_y():
    f = cc.symbol_from_poly(PLANE, [{(0, 1): 1.0}])
    g = cc.symbol_from_poly(PLANE, [{(1, 0): 1.0}])
    p = cc.sharp_product(f, g, K=3)
    b0 = p.coeffs[0, 0]
    assert abs(b0[1, 1] - 1.0) <= 1e-12
    b0[1, 1] = 0.0
    assert np.max(np.abs(b0)) <= 1e-12
    b1 = p.coeffs[0, 1]
    assert abs(b1[0, 0] - 1.0) <= 1e-12
    b1[0, 0] = 0.0
    assert np.max(np.abs(b1)) <= 1e-12
    for k in (2, 3):
        assert np.max(np.abs(p.coeffs[0, k])) <= 1e-12


def test_bargmann_x_sharp_zbar_has_no_corrections():
    f = cc.symbol_from_poly(PLANE, [{(1, 0): 1.0}])
    g = cc.symbol_from_poly(PLANE, [{(0, 1): 1.0}])
    p = cc.sharp_product(f, g, K=3)
    b0 = p.coeffs[0, 0]
    assert abs(b0[1, 1] - 1.0) <= 1e-12
    for k in (1, 2, 3):
        assert np.max(np.abs(p.coeffs[0, k])) <= 1e-12


def test_bargmann_unit_sharp_unit():
    one = cc.unit_covariant(PLANE)
    p = cc.sharp_product(one, one, K=4)
    vals = [complex(p.coeffs[0, k, 0, 0]) for k in range(5)]
    assert abs(vals[0] - 1.0) <= 1e-14
    assert max(abs(v) for v in vals[1:]) <= 1e-14


def test_bargmann_sharp_matches_closed_wick_form():
    # independent route: (f#g)_k = sum (1/n!) dzbar^n f_l dx^n g_j
    rng = np.random.default_rng(7)

    def rand_poly(deg, order):
        terms = {}
        for p in range(deg + 1):
            for q in range(deg + 1 - p):
                terms[(p, q)] = complex(rng.standard_normal(), rng.standard_normal())
        return cc.symbol_from_poly(PLANE, [terms], order=order)

    for _ in range(3):
        f = rand_poly(4, 8)
        g = rand_poly(4, 8)
        engine = cc.sharp_product(f, g, K=6)
        closed = cc.bargmann_wick_product(f, g, K=6)
        for k in range(7):
            d = engine.coeffs[0, k] - closed.coeffs[0, k]
            assert np.max(np.abs(d)) < 1e-10


def test_closed_wick_rejects_sphere():
    x3 = cc.symbol_from_poly(SPHERE, [{(0, 0, 1): 1.0}])
    with pytest.raises(ValueError):
        cc.bargmann_wick_product(x3, x3, K=2)


# -- sharp product: sphere ----------------------------------------------------


def test_sphere_unit_sharp_unit_alternating():
    # T(1)T(1) = (N/(N+1)) T(1): coefficients (-1)^k, constant across the
    # sphere (the strong engine invariant: rhoJ diagonal blocks are scalar)
    one = cc.unit_covariant(SPHERE, order=6)
    p = cc.sharp_product(one, one, K=3)
    for i in range(12):
        for k in range(4):
            block = p.coeffs[i, k].copy()
            block[0, 0] -= (-1.0) ** k
            assert np.max(np.abs(block)) < 1e-10


def _sphere_coordinate(axis, order=8):
    expo = [0, 0, 0]
    expo[axis] = 1
    return cc.symbol_from_poly(SPHERE, [{tuple(expo): 1.0}], order=order)


def test_sphere_x3_sharp_x3_closed_form():
    # T(x3) is diag (N - 2j)/(N + 1), so T(x3)^2 has the Berezin symbol
    # x3^2 + sum_k N^-k (-1)^(k-1) (1 - 2 x3^2): every coefficient of
    # x3 # x3, at every node
    x3 = _sphere_coordinate(2)
    p = cc.sharp_product(x3, x3, K=5)
    t = node_values(x3, 0)
    for k in range(6):
        want = t**2 if k == 0 else (-1.0) ** (k - 1) * (1.0 - 2.0 * t**2)
        assert np.max(np.abs(node_values(p, k) - want)) <= 1e-12, k


def test_sphere_spin_commutator_closed_form():
    # [T(x2), T(x3)] = -2i/(N + 1) T(x1), so the antisymmetric part of the
    # product is (x2 # x3 - x3 # x2)_k = -2i (-1)^(k-1) x1 for k >= 1
    x1, x2, x3 = (_sphere_coordinate(axis) for axis in range(3))
    left, right = cc.sharp_product(x2, x3, K=4), cc.sharp_product(x3, x2, K=4)
    for k in range(5):
        want = 0.0 if k == 0 else -2j * (-1.0) ** (k - 1) * node_values(x1, 0)
        got = node_values(left, k) - node_values(right, k)
        assert np.max(np.abs(got - want)) <= 1e-12, k


def test_sharp_preserves_rotation_invariance():
    f = cc.symbol_from_poly(SPHERE, [{(0, 0, 1): 1.0}], order=6)
    g = cc.symbol_from_poly(SPHERE, [{(0, 0, 2): 1.0}], order=6)
    assert cc.sharp_product(f, g, K=2).rotation_invariant
    h = cc.symbol_from_poly(SPHERE, [{(1, 0, 0): 1.0}], order=6)
    assert not cc.sharp_product(f, h, K=2).rotation_invariant


def test_sharp_zeroth_coefficient_is_pointwise_product():
    f = cc.symbol_from_poly(SPHERE, [{(0, 0, 1): 1.0, (0, 0, 0): 0.2}], order=6)
    g = cc.symbol_from_poly(SPHERE, [{(0, 0, 2): 0.7}], order=6)
    p = cc.sharp_product(f, g, K=2)
    for i in (0, 4, 10):
        want = complex(f.coeffs[i, 0, 0, 0]) * complex(g.coeffs[i, 0, 0, 0])
        assert abs(complex(p.coeffs[i, 0, 0, 0]) - want) < 1e-12


def test_dual_route_against_scalar_wick():
    # the family transport and the scalar moment contraction are
    # independent implementations of the same expansion; at a node's base
    # point they must agree to float noise
    cases = [
        (
            SPHERE,
            cc.symbol_from_poly(
                SPHERE, [{(0, 0, 0): 0.7, (0, 0, 1): 0.4}, {(0, 0, 2): 0.2}], order=8
            ),
            cc.symbol_from_poly(
                SPHERE, [{(0, 0, 1): 1.0, (0, 0, 0): -0.1}], order=8
            ),
            5,
        ),
        (
            PLANE,
            cc.symbol_from_poly(
                PLANE, [{(0, 0): 1.0, (1, 1): 0.5, (2, 0): 0.3j}], order=8
            ),
            cc.symbol_from_poly(PLANE, [{(1, 0): 1.0, (0, 2): -0.25}], order=8),
            0,
        ),
    ]
    K = 3
    for model, f, g, node in cases:
        prod = cc.sharp_product(f, g, K)
        order = 2 * K + 2
        phase2 = PowerSeries(
            np.ascontiguousarray(model.phase_phi1_series(0.0, 0.0, order).coeffs[:, :, 0, 0]),
            order,
        )
        rho2 = PowerSeries(
            np.ascontiguousarray(model.density_rho_series(0.0, 0.0, order).coeffs[:, :, 0, 0]),
            order,
        )
        fj = cc._coeffs_to(f, K)[node]
        gj = cc._coeffs_to(g, K)[node]
        for k in range(K + 1):
            acc = 0j
            for n in range(k + 1):
                for l in range(k - n + 1):
                    j = k - n - l
                    fl = PowerSeries.zero(2, order)
                    m = min(order, f.order)
                    fl.coeffs[0, : m + 1] = fj[l, 0, : m + 1]
                    gl = PowerSeries.zero(2, order)
                    gl.coeffs[: m + 1, 0] = gj[j, : m + 1, 0]
                    amp = fl * gl * rho2
                    acc += wick_expand(phase2, amp, n).coeffs[n]
            got = complex(prod.coeffs[node, k, 0, 0])
            assert abs(got - acc) < 1e-10


def test_associativity_both_geometries():
    # outputs at parameter degree p consume operand jet degrees <= p + n,
    # so a double product is exact only through degree order - K; compare
    # there
    rng = np.random.default_rng(11)
    for model in (PLANE, SPHERE):
        syms = []
        for _ in range(3):
            if model.compact:
                terms = {
                    (0, 0, 0): complex(rng.standard_normal()),
                    (0, 0, 1): complex(rng.standard_normal()) * 0.5,
                    (0, 0, 2): complex(rng.standard_normal()) * 0.2,
                }
            else:
                terms = {
                    (0, 0): complex(rng.standard_normal()),
                    (1, 1): complex(rng.standard_normal()) * 0.5,
                    (2, 1): complex(rng.standard_normal()) * 0.2,
                }
            syms.append(cc.symbol_from_poly(model, [terms], order=6))
        f, g, h = syms
        K, deg = 2, 2
        left = cc.sharp_product(cc.sharp_product(f, g, K), h, K)
        right = cc.sharp_product(f, cc.sharp_product(g, h, K), K)
        for i in range(len(f.nodes)):
            for k in range(K + 1):
                d = masked(left.coeffs[i, k], deg) - masked(right.coeffs[i, k], deg)
                assert np.max(np.abs(d)) < 1e-8


def test_bergman_symbol_is_two_sided_unit():
    for model in (SPHERE, PLANE):
        key = (0, 0, 1) if model.compact else (1, 1)
        ckey = (0, 0, 0) if model.compact else (0, 0)
        a = cc.bergman_symbol(model, K=2, order=6)
        K, deg = 2, 4
        # a itself is one of the f: the projector is idempotent, a sharp a = a
        for f in (cc.symbol_from_poly(model, [{key: 1.0, ckey: 0.5}], order=6), a):
            for prod in (cc.sharp_product(a, f, K), cc.sharp_product(f, a, K)):
                for i in range(len(f.nodes)):
                    for k in range(K + 1):
                        want = masked(cc._coeffs_to(f, K)[i, k], deg)
                        got = masked(prod.coeffs[i, k], deg)
                        assert np.max(np.abs(got - want)) < 1e-10


def test_geometry_mismatch_raises():
    f = cc.unit_covariant(PLANE)
    g = cc.unit_covariant(SPHERE)
    with pytest.raises(ValueError, match="geometry mismatch"):
        cc.sharp_product(f, g, K=1)


def test_pair_cap_guard():
    one = cc.unit_covariant(SPHERE, order=6)
    with pytest.raises(ValueError, match="pair cap"):
        cc.sharp_product(one, one, K=3, pair_cap=6)


def test_composition_reads_no_certificate(monkeypatch):
    # the node jets are measured only when norm_estimate is called, and
    # sharp_product never calls it
    calls = []

    def counting(a, *args, **kw):
        calls.append(a)
        return estimate(a, *args, **kw)

    estimate = fs.estimate_symbol_norm
    monkeypatch.setattr(fs, "estimate_symbol_norm", counting)
    monkeypatch.setattr(cc, "estimate_symbol_norm", counting)
    f = cc.symbol_from_poly(SPHERE, [{(0, 0, 1): 1.0}])
    g = cc.symbol_from_poly(SPHERE, [{(0, 0, 0): 1.0, (0, 0, 1): -0.333}])
    product = cc.sharp_product(f, g, K=2)
    assert calls == []
    norm = product.norm_estimate()
    assert len(calls) == len(product.nodes)
    assert norm == max(estimate(a) for a in calls)


# -- bergman symbol -----------------------------------------------------------


def test_bergman_sphere_coefficients():
    a = cc.bergman_symbol(SPHERE, K=4, order=6)
    want = [1.0, 1.0, 0.0, 0.0, 0.0]
    for i in range(12):
        for k in range(5):
            block = a.coeffs[i, k].copy()
            block[0, 0] -= want[k]
            assert np.max(np.abs(block)) < 1e-10
    assert a.rotation_invariant
    assert a.exact is not None


def test_bergman_sphere_constant_terms_through_K6():
    # S_N(z, z) = N + 1 against N^d Psi^N: a = (1, 1, 0, ...) exactly
    a = cc.bergman_symbol(SPHERE, K=6, order=8)
    for k in range(7):
        want = 1.0 if k < 2 else 0.0
        assert np.max(np.abs(node_values(a, k) - want)) <= 1e-12, k
    # the constants are pinned by the model, not by a flatness test
    for K in (5, 6):
        assert cc.bergman_symbol(SPHERE, K=K, order=8).exact is not None, K


def test_bergman_plane_coefficients():
    a = cc.bergman_symbol(PLANE, K=4, order=6)
    assert abs(complex(a.coeffs[0, 0, 0, 0]) - 1.0) < 1e-14
    for k in range(1, 5):
        assert np.max(np.abs(a.coeffs[0, k])) < 1e-12


def test_bergman_sphere_summation_at_N3():
    # N (1 + 1/N) = N + 1: the exact reproducing-kernel diagonal S_3 = 4
    a = cc.bergman_symbol(SPHERE, K=4, order=6)
    N = 3
    total = N * sum(
        complex(a.coeffs[0, k, 0, 0]) * N ** (-k) for k in range(5)
    )
    assert abs(total - 4.0) < 1e-12


def test_bergman_symbol_shared_and_read_only():
    a = cc.bergman_symbol(geometry.SphereModel(), K=2, order=6)
    assert cc.bergman_symbol(geometry.model_by_name("sphere"), K=2, order=6) is a
    assert cc.bergman_symbol(SPHERE, K=3, order=6) is not a
    assert a.exact is not None and a.K == 2
    for array in (a.coeffs[0, 0], a.coeffs[-1, 2], a.nodes):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 2.0
    with pytest.raises(TypeError):
        a.exact[0][(0, 0, 0)] = 2.0


@pytest.mark.parametrize("model", [SPHERE, PLANE], ids=["sphere", "plane"])
@pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
def test_bergman_symbol_jets_are_its_constants(model, K):
    # the exact symbol is constant, so every non-constant jet entry is 0,
    # not the solve's rounding, and each constant is what its polynomial evaluates to
    a = cc.bergman_symbol(model, K)
    rest = a.coeffs.copy()
    rest[:, :, 0, 0] = 0.0
    assert not np.any(rest)
    for k in range(K + 1):
        assert np.all(a.coeffs[:, k, 0, 0] == a.value({k: 1.0}, 0.3, 0.2))


def test_engine_built_once_under_threads(monkeypatch):
    builds = []

    def slow_build(geometry, pair_cap, param_cap):
        builds.append((geometry.name, pair_cap, param_cap))
        time.sleep(0.05)  # hold the build open while the other threads arrive
        return object()

    monkeypatch.setattr(cc, "_ENGINE_CACHE", {})
    monkeypatch.setattr(cc, "_build_engine", slow_build)
    start = threading.Barrier(4)
    got = []

    def worker():
        start.wait(timeout=10)
        got.append(cc._engine(SPHERE, 10, 8))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert builds == [("sphere", 10, 8)]
    assert len(got) == 4 and all(e is got[0] for e in got)


@pytest.mark.parametrize("P", [6, 8, 10])
def test_engine_density_stable_under_pair_cap(P):
    # the blocks (n, n) with 2n <= P - 2 that _bracket_tower reads are
    # exact at cap P, so a larger cap moves them by rounding only
    eng, ref = cc._engine(SPHERE, P, 8), cc._engine(SPHERE, P + 2, 8)
    for n in range((P - 2) // 2 + 1):
        want = ref.rho_jac.block(n, n)
        gap = np.max(np.abs(eng.rho_jac.block(n, n) - want)) / np.max(np.abs(want))
        assert gap <= 1e-9, (n, gap)


def test_bergman_uniqueness_via_second_symbol():
    # solve_sharp(f, f) recovers the same unit for any invertible f
    a = cc.bergman_symbol(SPHERE, K=3, order=6)
    f = cc.symbol_from_poly(SPHERE, [{(0, 0, 0): 1.0, (0, 0, 1): 0.3}], order=6)
    g = cc.solve_sharp(f, f, K=3)
    for i in range(12):
        for k in range(4):
            d = g.coeffs[i, k] - a.coeffs[i, k]
            assert np.max(np.abs(d)) < 1e-9


# -- solve and inverse --------------------------------------------------------


def test_solve_round_trip_recovers_factor():
    f = cc.symbol_from_poly(SPHERE, [{(0, 0, 0): 1.0, (0, 0, 1): 0.3}], order=6)
    g0 = cc.symbol_from_poly(
        SPHERE, [{(0, 0, 0): 1.0, (0, 0, 1): -0.2}, {(0, 0, 2): 0.1}], order=6
    )
    h = cc.sharp_product(f, g0, K=3)
    g = cc.solve_sharp(f, h, K=3)
    # k <= 1 coefficients are fully represented in g0's stored jets
    for i in range(12):
        for k in range(2):
            d = g.coeffs[i, k] - cc._coeffs_to(g0, 3)[i, k]
            assert np.max(np.abs(d)) < 1e-10


def test_solve_trivial_scalars():
    f = cc.symbol_from_poly(PLANE, [{(0, 0): 2.0}])
    g = cc.solve_sharp(f, f, K=3)
    vals = [complex(g.coeffs[0, k, 0, 0]) for k in range(4)]
    assert abs(vals[0] - 1.0) < 1e-14 and max(abs(v) for v in vals[1:]) < 1e-14


def test_sharp_inverse_of_bergman_is_bergman():
    a = cc.bergman_symbol(SPHERE, K=3, order=6)
    inv = cc.sharp_inverse(a, K=3)
    for k in range(4):
        d = inv.coeffs[0, k] - a.coeffs[0, k]
        assert np.max(np.abs(d)) < 1e-10


def test_sharp_inverse_plane_constant():
    f = cc.symbol_from_poly(PLANE, [{(0, 0): 2.0}])
    inv = cc.sharp_inverse(f, K=3)
    vals = [complex(inv.coeffs[0, k, 0, 0]) for k in range(4)]
    assert abs(vals[0] - 0.5) < 1e-14 and max(abs(v) for v in vals[1:]) < 1e-14


def test_sharp_inverse_perturbative_consistency():
    # f = a + eps b: f^{-1} = a - eps (a#b#a-ish) + O(eps^2); the finite
    # difference (inv(eps) - a)/eps must be eps-stable to first order
    b = cc.symbol_from_poly(SPHERE, [{(0, 0, 1): 1.0}], order=6)
    a = cc.bergman_symbol(SPHERE, K=2, order=6)

    def inv_at(eps):
        terms = [{(0, 0, 0): 1.0, (0, 0, 1): eps}, {(0, 0, 0): 1.0}]
        f = cc.symbol_from_poly(SPHERE, terms, order=6)
        return cc.sharp_inverse(f, K=2)

    slopes = []
    for eps in (1e-3, 1e-4):
        inv = inv_at(eps)
        d = (inv.coeffs[3, 0] - a.coeffs[3, 0]) / eps
        slopes.append(d)
    assert np.max(np.abs(slopes[0] - slopes[1])) < 1e-2


def test_sharp_inverse_vanishing_leading_term():
    f = cc.symbol_from_poly(SPHERE, [{(0, 0, 0): 0.0}], order=6)
    with pytest.raises(ArithmeticError):
        cc.sharp_inverse(f, K=1)


def test_solve_sharp_residual_guard(monkeypatch):
    # a W_0 weight 1% off solves every g_k 1% wrong; only the assembled
    # residual can see it, since the recursion itself divides exactly
    f = cc.symbol_from_poly(SPHERE, [{(0, 0, 0): 1.0, (0, 0, 1): 0.4}], order=6)
    h = cc.unit_covariant(SPHERE, order=6)
    cc.solve_sharp(f, h, K=2)
    true_w0 = cc._Engine.w0.fget
    monkeypatch.setattr(cc._Engine, "w0", property(lambda eng: 1.01 * true_w0(eng)))
    with pytest.raises(ArithmeticError, match="residual"):
        cc.solve_sharp(f, h, K=2)


# -- contravariant bracket ----------------------------------------------------


def test_contravariant_of_one_is_bergman():
    one = cc.unit_covariant(SPHERE, order=6)
    t = cc.contravariant_to_covariant(one, K=3)
    a = cc.bergman_symbol(SPHERE, K=3, order=6)
    for i in range(12):
        for k in range(4):
            d = t.coeffs[i, k] - a.coeffs[i, k]
            assert np.max(np.abs(d)) < 1e-10


def test_contravariant_x3_leading_jet_is_x3():
    x3 = cc.symbol_from_poly(SPHERE, [{(0, 0, 1): 1.0}], order=6)
    t = cc.contravariant_to_covariant(x3, K=2)
    for i in range(12):
        d = masked(t.coeffs[i, 0], 6) - masked(x3.coeffs[i, 0], 6)
        assert np.max(np.abs(d)) < 1e-12


def test_contravariant_x3_full_expansion():
    # exact finite-rank check: the contravariant matrix of x3 is
    # diag (N-2j)/(N+2) while the covariant matrix of x3 is (N-2j)/(N+1),
    # so the transform multiplies x3 by (N+1)/(N+2) = 1 - 1/N + 2/N^2 - ...
    x3 = cc.symbol_from_poly(SPHERE, [{(0, 0, 1): 1.0}], order=6)
    t = cc.contravariant_to_covariant(x3, K=3)
    gamma = [1.0, -1.0, 2.0, -4.0]
    base = node_values(x3, 0)
    for k in range(4):
        assert np.max(np.abs(node_values(t, k) - gamma[k] * base)) < 1e-9


def _triple_loop_contravariant(f, K):
    """Per-node blocks of T_N(f) by the former triple loop: one bracket per
    (l, i, j) of a_l(left) f_i(middle) against a_j(right)."""
    a = cc.bergman_symbol(f.geometry, K, order=f.order, r=f.r, R=f.R, m=f.m)
    eng = cc._engine(f.geometry, 2 * K + 2, f.order)
    M = eng.param_cap
    per_node = []
    for i in range(len(f.nodes)):
        ajets = a.coeffs[min(i, len(a.nodes) - 1)]
        A_left = [cc._substitute(c, eng, left=True) for c in ajets]
        A_right = [cc._substitute(c, eng, left=False) for c in ajets]
        mids = [cc._substitute_middle(c, eng) for c in cc._coeffs_to(f, K)[i]]
        out = [np.zeros((M + 1, M + 1), dtype=np.complex128) for _ in range(K + 1)]
        for l in range(K + 1):
            if not np.any(A_left[l].coeffs):
                continue
            for fi in range(K + 1 - l):
                if not np.any(mids[fi].coeffs):
                    continue
                lf = A_left[l] * mids[fi]
                for j in range(K + 1 - l - fi):
                    if not np.any(A_right[j].coeffs):
                        continue
                    tower = cc._bracket_tower(lf, A_right[j], eng, K - l - fi - j)
                    for n, block in enumerate(tower):
                        out[l + fi + j + n] += block
        per_node.append(out)
    return per_node


def test_contravariant_cauchy_combination_matches_triple_loop():
    # three stored coefficients, so L_k = sum_{l+i=k} a_l f_i has two terms
    # from k = 1 on (the sphere's a_0 = a_1 = 1)
    f = cc.symbol_from_poly(
        SPHERE,
        [{(0, 0, 1): 1.0}, {(0, 0, 2): 0.5, (1, 0, 0): 0.3}, {(0, 0, 0): -0.2, (0, 0, 1): 0.7}],
        order=6,
    )
    K = 2
    got = cc.contravariant_to_covariant(f, K=K)
    want = _triple_loop_contravariant(f, K)
    for k in range(K + 1):
        scale = max(np.max(np.abs(blocks[k])) for blocks in want)
        for i, blocks in enumerate(want):
            diff = np.max(np.abs(got.coeffs[i, k] - blocks[k]))
            assert diff <= 1e-14 * scale, (i, k, diff / scale)


def test_contravariant_substitutes_bergman_once(monkeypatch):
    # the Bergman symbol's substitutions serve every node: one left and one
    # right family per order for the call, although x3 has 12 distinct jets
    x3 = cc.symbol_from_poly(SPHERE, [{(0, 0, 1): 1.0}], order=6)
    assert len({x3.coeffs[i].tobytes() for i in range(len(x3.nodes))}) == 12
    K = 2
    cc.bergman_symbol(SPHERE, K, order=6)
    sides = []
    substitute = cc._substitute

    def counting(jet, eng, left):
        sides.append(left)
        return substitute(jet, eng, left)

    monkeypatch.setattr(cc, "_substitute", counting)
    cc.contravariant_to_covariant(x3, K=K)
    assert sides.count(True) == K + 1 and sides.count(False) == K + 1


def test_contravariant_plane_abs_x_squared():
    f = cc.symbol_from_poly(PLANE, [{(1, 1): 1.0}], order=6)
    t = cc.contravariant_to_covariant(f, K=3)
    b0 = t.coeffs[0, 0]
    assert abs(b0[1, 1] - 1.0) < 1e-12
    b1 = t.coeffs[0, 1]
    assert abs(b1[0, 0] - 1.0) < 1e-12
    for k in (2, 3):
        assert np.max(np.abs(t.coeffs[0, k])) < 1e-12


# -- degree invariance (the bracket sees only low jets) -----------------------


def test_wick_degree_check_both_geometries():
    f = cc.symbol_from_poly(SPHERE, [{(0, 0, 0): 1.0, (0, 0, 1): 0.4}], order=6)
    g = cc.symbol_from_poly(SPHERE, [{(0, 0, 1): 1.0}, {(0, 0, 2): -0.3}], order=6)
    for k in range(4):
        assert cc.wick_degree_check(f, g, k, basepoint=4)
    fp = cc.symbol_from_poly(PLANE, [{(0, 0): 1.0, (1, 1): 0.5}], order=6)
    gp = cc.symbol_from_poly(PLANE, [{(2, 1): 1.0}], order=6)
    for k in range(4):
        assert cc.wick_degree_check(fp, gp, k)


def test_wick_degree_check_order_guard():
    f = cc.unit_covariant(SPHERE, order=4)
    with pytest.raises(ValueError):
        cc.wick_degree_check(f, f, k=4)


# -- class stability ----------------------------------------------------------


def test_class_stability_frozen_constant():
    rng = np.random.default_rng(20240502)
    grids = [(1.0, 3.0, 2), (1.0, 3.0, 4), (1.3, 6.6, 3)]

    def rand_symbol():
        terms = []
        for _ in range(3):
            tk = {}
            for e3 in range(3):
                if rng.uniform() < 0.7:
                    tk[(0, 0, e3)] = complex(rng.uniform(-1.0, 1.0))
            terms.append(tk or {(0, 0, 0): 0.0})
        return cc.symbol_from_poly(SPHERE, terms, order=6)

    checked = 0
    for _ in range(6):
        f, g = rand_symbol(), rand_symbol()
        if f.norm_estimate() < 1e-6 or g.norm_estimate() < 1e-6:
            continue
        rows = cc.class_stability_check(f, g, K=2, grids=grids)
        assert [(row["r"], row["R"], row["m"]) for row in rows] == grids
        for res in rows:
            assert res["ratio"] <= constants.SHARP_CLASS_C
            assert res["holds"]
            checked += 1
    assert checked >= 9


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
