"""Kernel parity: conv_pair against the slice-add loop it replaced."""

import math

import numpy as np
import pytest

from toeplitz_forge import _kernels, covariant_calculus as cc, geometry


def _loop_conv_pair(a, b, pair_cap, param_cap, diag_only):
    """The per-nonzero slice-add loop that conv_pair packs into matmuls.

    For every pair of live blocks whose pair degrees sum to at most the
    pair cap, each nonzero parameter coefficient of the a block adds one
    shifted slice of the b block.
    """
    P, M = pair_cap, param_cap
    out = np.zeros((P + 1, P + 1, M + 1, M + 1), dtype=np.complex128)
    used_a = [(i, j) for i in range(min(a.shape[0], P + 1))
              for j in range(min(a.shape[1], P + 1)) if np.any(a[i, j])]
    used_b = [(i, j) for i in range(min(b.shape[0], P + 1))
              for j in range(min(b.shape[1], P + 1)) if np.any(b[i, j])]
    for i1, j1 in used_a:
        blk_a = a[i1, j1]
        for i2, j2 in used_b:
            i, j = i1 + i2, j1 + j2
            if i + j > P or (diag_only and i != j):
                continue
            blk_b = b[i2, j2]
            for p, q in np.argwhere(blk_a != 0):
                if p + q > M:
                    continue
                tp = min(blk_b.shape[0], M + 1 - p)
                tq = min(blk_b.shape[1], M + 1 - q)
                out[i, j, p : p + tp, q : q + tq] += blk_a[p, q] * blk_b[:tp, :tq]
    out[:, :, np.add.outer(np.arange(M + 1), np.arange(M + 1)) > M] = 0.0
    return out


def _engine_operands(model, pair_cap, param_cap):
    """Every conv_pair operand pair of one engine build, in call order."""
    seen = []
    saved = _kernels.conv_pair

    def record(a, b, P, M, diag_only=False):
        seen.append((np.array(a, dtype=complex), np.array(b, dtype=complex), P, M, diag_only))
        return saved(a, b, P, M, diag_only)

    _kernels.conv_pair = record
    try:
        cc._build_engine(model, pair_cap, param_cap)
    finally:
        _kernels.conv_pair = saved
    return seen


def _densest(calls, count):
    live = [np.count_nonzero(np.any(a, axis=(2, 3))) * np.count_nonzero(np.any(b, axis=(2, 3)))
            for a, b, *_ in calls]
    return [calls[i] for i in np.argsort(live)[::-1][:count]]


def _random_family(rng, shape, fill):
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return values * (rng.random(shape) < fill)


def _cases():
    sphere = _densest(_engine_operands(geometry.SphereModel(), 10, 8), 6)
    plane = _engine_operands(geometry.BargmannModel(), 10, 8)
    rng = np.random.default_rng(7)
    small_a = _random_family(rng, (3, 4, 5, 2), 0.7)
    small_b = _random_family(rng, (6, 2, 9, 9), 0.5)
    dense = _random_family(rng, (7, 7, 9, 9), 1.0)
    zero = np.zeros((7, 7, 9, 9), dtype=complex)
    cases = {}
    for n, (a, b, P, M, diag) in enumerate(sphere):
        cases[f"sphere-{n}"] = (a, b, P, M, diag)
        cases[f"sphere-{n}-diag"] = (a, b, P, M, True)
    for n, (a, b, P, M, diag) in enumerate(plane):
        cases[f"plane-{n}"] = (a, b, P, M, diag)
    cases["below-caps"] = (small_a, small_b, 6, 8, False)
    cases["below-caps-diag"] = (small_a, small_b, 6, 8, True)
    cases["above-caps"] = (dense, small_b, 4, 5, False)
    cases["zero-left"] = (zero, dense, 6, 8, False)
    cases["zero-right"] = (dense, zero, 6, 8, True)
    return cases


@pytest.fixture(scope="module")
def cases():
    return _cases()


def test_conv_pair_matches_loop(cases):
    # the sphere operands exercise the many-live-block path, the plane
    # operands the one-block path
    a, b, *_ = cases["sphere-0"]
    assert min(np.count_nonzero(np.any(x, axis=(2, 3))) for x in (a, b)) > 50
    assert "plane-0" in cases
    for name, (a, b, P, M, diag) in cases.items():
        want = _loop_conv_pair(a, b, P, M, diag)
        got = _kernels.conv_pair(a, b, P, M, diag)
        assert got.shape == (P + 1, P + 1, M + 1, M + 1), name
        scale = max(float(np.max(np.abs(want))), 1e-300)
        assert float(np.max(np.abs(got - want))) <= 1e-13 * scale, name
        if not np.any(want):
            assert not np.any(got), name


def _jet(rng, order):
    """A two-variable jet block whose coefficients fall off like 1/(i+j)!."""
    c = np.zeros((order + 1, order + 1), dtype=complex)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            c[i, j] = rng.standard_normal() / math.factorial(i + j)
    return c


def test_conv_pair_diag_only_is_masked_full_product():
    # the operands the Wick contraction hands to diag_only: products of a
    # left- and a right-substituted jet, against the sphere engine's rho_jac
    eng = cc._engine(geometry.SphereModel(), 10, 8)
    rng = np.random.default_rng(2)
    lefts = [eng.rho_jac.coeffs]
    for _ in range(3):
        F = cc._substitute(_jet(rng, 8), eng, left=True)
        G = cc._substitute(_jet(rng, 8), eng, left=False)
        lefts.append((F * G).coeffs)
    diag = np.arange(11)
    for a in lefts:
        full = _kernels.conv_pair(a, eng.rho_jac.coeffs, 10, 8)
        want = np.zeros_like(full)
        want[diag, diag] = full[diag, diag]
        got = _kernels.conv_pair(a, eng.rho_jac.coeffs, 10, 8, diag_only=True)
        assert float(np.max(np.abs(got - want))) <= 1e-14 * float(np.max(np.abs(want)))


def test_param_monomials_read_only():
    ps, qs, quot = _kernels._param_monomials(8)
    assert ps.size == 45 and quot.shape == (45, 45)
    assert np.all(ps + qs <= 8)
    for arr in (ps, qs, quot):
        with pytest.raises(ValueError):
            arr[0] = 1
