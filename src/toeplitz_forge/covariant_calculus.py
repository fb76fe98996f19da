"""Sharp-product calculus for covariant symbols on the model geometries.

A covariant symbol is a coefficient family f ~ sum_k N^{-k} f_k of
functions of (x, zbar) near the diagonal.  Each f_k is stored as Taylor
jets at a grid of diagonal base points, and every jet lives in that
point's normal frame: the chart is moved (rotation for the sphere,
translation for the plane) so the base point sits at the origin.  In the
moved chart the potential changes only by a cocycle that cancels from the
four-point phase, and the volume density keeps its base form, so a single
Morse normalization per geometry serves every node, and jets stay O(1)
even at nodes far out in the affine chart.

Composition: T(f) T(g) has the kernel

    N^{2d} integral Psi^N(x, wbar) Psi^N(y, zbar) f(x, wbar) g(y, zbar) dm(y)

on the real locus wbar = conj y, and factoring out N^d Psi^N(x, zbar)
leaves the oscillatory integral the stationary_phase engine expands.
Coefficientwise,

    (f sharp g)_k = sum_{n+l+j=k} W_n[f_l, g_j],

where the n-th Wick bracket W_n[F, G] is n! times the (n, n)
pair-diagonal block of (F o kappa)(G o kappa) rho J after the Morse
change of variables; F takes the anti-holomorphic substitution
F = f_l(dx, dzbar + iota_vbar) and G the holomorphic one.  W_0[F, G] is
plain multiplication by construction (rho J starts at 1), so inverting
sharp is a triangular recursion whose division happens in the truncated
jet ring, where it is exact.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import constants, _kernels
from .function_spaces import Domain, estimate_symbol_norm, make_symbol
from .geometry import ModelGeometry
from .series import PowerSeries, _degree_grid
from .stationary_phase import MorseFamily, PairFamily, _pair_powers, morse_normalize_family

SPHERE_NODE_COUNT = 12
JET_DOMAIN_RADIUS = 0.35
DEFAULT_ORDER = 8
DEFAULT_CLASS = (1.0, 2.0, 2)  # (r, R, m)

_SOLVE_TOL = 1e-9


# ---------------------------------------------------------------------------
# node grids and normal frames


def node_grid(geometry: ModelGeometry, count: Optional[int] = None) -> np.ndarray:
    """Diagonal base points, as chart coordinates.

    The sphere grid walks a meridian from pole to pole: polar angles
    (j + 1/2) pi / count, chart points tan(theta/2).  One node at the
    origin suffices on the plane, where translations act transitively.
    """
    if not geometry.compact:
        return np.zeros(1, dtype=complex)
    if count is None:
        count = SPHERE_NODE_COUNT
    theta = (np.arange(count) + 0.5) * np.pi / count
    return np.tan(theta / 2.0).astype(complex)


def frame_to_chart(geometry: ModelGeometry, node: complex, a):
    """Map a normal-frame offset to the global chart."""
    a = np.asarray(a, dtype=complex)
    if not geometry.compact:
        return node + a
    return (node + a) / (1.0 - np.conj(node) * a)


def chart_to_frame(geometry: ModelGeometry, node: complex, x):
    """Holomorphic chart point -> normal-frame offset (inverse Moebius)."""
    x = np.asarray(x, dtype=complex)
    if not geometry.compact:
        return x - node
    return (x - node) / (1.0 + np.conj(node) * x)


def chart_to_frame_bar(geometry: ModelGeometry, node: complex, zbar):
    """Anti-holomorphic partner of chart_to_frame (acts on zbar)."""
    zbar = np.asarray(zbar, dtype=complex)
    if not geometry.compact:
        return zbar - np.conj(node)
    return (zbar - np.conj(node)) / (1.0 + node * zbar)


# ---------------------------------------------------------------------------
# the covariant symbol container


@dataclass
class CovariantSymbol:
    """Per-node jets of an N^{-1} coefficient family near the diagonal.

    ``jets[i]`` is an AnalyticSymbol whose coefficient series live in the
    node-i normal frame offsets (delta x, delta zbar); holomorphic
    dependence rides the first axis, anti-holomorphic the second.
    ``global_eval(k, x, zbar)``, when present, evaluates coefficient k
    exactly at arbitrary polarized points (used by quadratures; jets are
    authoritative for the calculus).  ``constant_coeffs``, when present,
    holds the values of coefficients 0..K of a symbol whose every
    coefficient is constant, so quadratures can sum them as scalars.
    """

    geometry: ModelGeometry
    nodes: np.ndarray
    jets: tuple
    rotation_invariant: bool = False
    global_eval: Optional[Callable] = None
    constant_coeffs: Optional[tuple] = None

    @property
    def K(self) -> int:
        return self.jets[0].K

    @property
    def order(self) -> int:
        return self.jets[0].order

    @property
    def r(self) -> float:
        return self.jets[0].r

    @property
    def R(self) -> float:
        return self.jets[0].R

    @property
    def m(self) -> int:
        return self.jets[0].m

    def coeff_jet(self, node_index: int, k: int) -> PowerSeries:
        return self.jets[node_index].coeffs[k]

    def node_values(self, k: int) -> np.ndarray:
        """Coefficient k restricted to the diagonal grid."""
        return np.array(
            [complex(self.jets[i].coeffs[k].constant_term()) for i in range(len(self.nodes))]
        )

    def jet_eval(self, node_index: int, k: int, a, bbar):
        """Evaluate coefficient k's node jet at frame offsets (vectorized)."""
        c = np.asarray(self.jets[node_index].coeffs[k].coeffs, dtype=complex)
        a = np.asarray(a, dtype=complex)
        bbar = np.asarray(bbar, dtype=complex)
        pow_a = a[..., None] ** np.arange(c.shape[0])
        pow_b = bbar[..., None] ** np.arange(c.shape[1])
        return np.einsum("...p,pq,...q->...", pow_a, c, pow_b)

    def value(self, k: int, x, zbar):
        """Coefficient k at a polarized point, preferring the exact evaluator."""
        if self.global_eval is not None:
            return self.global_eval(k, np.asarray(x, dtype=complex), np.asarray(zbar, dtype=complex))
        idx, a, bbar = frame_pair_offsets(self, x, zbar)
        out = np.empty(np.shape(idx), dtype=complex)
        flat_idx = np.atleast_1d(idx)
        fa, fb = np.atleast_1d(a), np.atleast_1d(bbar)
        res = np.atleast_1d(out)
        for i in np.unique(flat_idx):
            sel = flat_idx == i
            res[sel] = self.jet_eval(int(i), k, fa[sel], fb[sel])
        return out if out.shape else complex(res[0])

    def norm_estimate(self, r=None, R=None, m=None) -> float:
        """Symbol-class norm: worst node-jet estimate."""
        return max(estimate_symbol_norm(j, r=r, R=R, m=m) for j in self.jets)


def frame_pair_offsets(symbol: CovariantSymbol, x, zbar):
    """Locate a polarized point: (node index, frame offsets) per entry.

    Rotation-invariant sphere symbols are first derotated about the polar
    axis so the pair sits over the meridian the node grid samples; other
    symbols use the raw nearest node and are only trustworthy near the
    grid.
    """
    geom = symbol.geometry
    x = np.asarray(x, dtype=complex)
    zbar = np.asarray(zbar, dtype=complex)
    if not geom.compact:
        idx = np.zeros(np.broadcast(x, zbar).shape, dtype=int)
        node = symbol.nodes[0]
        return idx, x - node, zbar - np.conj(node)
    if symbol.rotation_invariant:
        # f(e^{ig} x, e^{-ig} zbar) = f(x, zbar): rotate the pair midpoint
        # onto the positive real meridian before taking offsets
        phase = np.angle(x + np.conj(zbar) + 1e-300)
        x = x * np.exp(-1j * phase)
        zbar = zbar * np.exp(1j * phase)
    theta_x = 2.0 * np.arctan(np.abs(x))
    theta_z = 2.0 * np.arctan(np.abs(np.conj(zbar)))
    theta_mid = 0.5 * (theta_x + theta_z)
    grid_theta = (np.arange(len(symbol.nodes)) + 0.5) * np.pi / len(symbol.nodes)
    idx = np.argmin(np.abs(theta_mid[..., None] - grid_theta), axis=-1)
    nodes = symbol.nodes[idx]
    a = (x - nodes) / (1.0 + np.conj(nodes) * x)
    bbar = (zbar - np.conj(nodes)) / (1.0 + nodes * zbar)
    return idx, a, bbar


def overlap_defect(symbol: CovariantSymbol) -> float:
    """Largest real-locus mismatch between adjacent node jets.

    Both jets of an adjacent pair are evaluated at the geodesic midpoint
    of the pair (a point on the diagonal each frame sees at small offset);
    agreement within 1e-9 is the storage invariant.
    """
    geom = symbol.geometry
    if len(symbol.nodes) < 2:
        return 0.0
    worst = 0.0
    grid_theta = (np.arange(len(symbol.nodes)) + 0.5) * np.pi / len(symbol.nodes)
    for i in range(len(symbol.nodes) - 1):
        theta_mid = 0.5 * (grid_theta[i] + grid_theta[i + 1])
        z_mid = math.tan(theta_mid / 2.0)
        for which in (i, i + 1):
            a = chart_to_frame(geom, symbol.nodes[which], z_mid)
            if abs(a) > JET_DOMAIN_RADIUS:
                raise ValueError("node spacing exceeds the jet domain")
        for k in range(symbol.K + 1):
            vals = [
                symbol.jet_eval(
                    which,
                    k,
                    chart_to_frame(geom, symbol.nodes[which], z_mid),
                    chart_to_frame_bar(geom, symbol.nodes[which], np.conj(z_mid)),
                )
                for which in (i, i + 1)
            ]
            worst = max(worst, abs(complex(vals[0]) - complex(vals[1])))
    return worst


# ---------------------------------------------------------------------------
# symbol builders


def _jet_domain() -> Domain:
    return Domain.disk(JET_DOMAIN_RADIUS) * Domain.disk(JET_DOMAIN_RADIUS)


def _frame_euclid_series(node: complex, order: int):
    """Jets of the polarized sphere coordinates (x1, x2, x3) in the normal
    frame of a meridian node.

    Building them through the global chart would multiply series with
    coefficients ~ node^p and cancel catastrophically near the pole, so
    the frame jets are assembled from the base-point functions and the
    rigid rotation that carries the node to the origin:
    x2 is fixed and (x1, x3) rotate by the node's polar angle.
    """
    lam = complex(node)
    if abs(lam.imag) > 1e-14:
        raise ValueError("sphere nodes sit on the real meridian")
    lam = lam.real
    a = PowerSeries.variable(0, 2, order)
    bbar = PowerSeries.variable(1, 2, order)
    d = (1 + a * bbar).reciprocal()
    base1 = (a + bbar) * d
    base2 = (a - bbar) * d * (-1j)
    base3 = (1 - a * bbar) * d
    c = (1.0 - lam * lam) / (1.0 + lam * lam)
    s = 2.0 * lam / (1.0 + lam * lam)
    return (base1 * c + base3 * s, base2, base1 * (-s) + base3 * c)


def symbol_from_euclid_poly(
    geometry: ModelGeometry,
    terms_per_k: Sequence[dict],
    order: int = DEFAULT_ORDER,
    r: float = DEFAULT_CLASS[0],
    R: float = DEFAULT_CLASS[1],
    m: int = DEFAULT_CLASS[2],
    node_count: Optional[int] = None,
) -> CovariantSymbol:
    """Sphere symbol from polynomials in the ambient coordinates.

    ``terms_per_k[k]`` maps exponent triples (e1, e2, e3) to coefficients;
    coefficient k of the symbol is the polarized extension of
    sum c * x1^e1 x2^e2 x3^e3.  The exact polarized evaluator is attached
    for quadrature use.  ``node_count`` refines the meridian grid when jets
    of a derived symbol will be read far from the diagonal.
    """
    if not geometry.compact:
        raise ValueError("ambient-polynomial symbols are a sphere construction")
    nodes = node_grid(geometry, node_count)
    domain = _jet_domain()
    jets = []
    for node in nodes:
        e1, e2, e3 = _frame_euclid_series(node, order)
        coeffs = []
        for terms in terms_per_k:
            acc = PowerSeries.zero(2, order)
            for (p1, p2, p3), cval in sorted(terms.items()):
                mono = PowerSeries.constant(complex(cval), 2, order)
                for fac, p in ((e1, p1), (e2, p2), (e3, p3)):
                    for _ in range(p):
                        mono = mono * fac
                acc = acc + mono
            coeffs.append(acc)
        jets.append(make_symbol(coeffs, domain, r, R, m))
    invariant = all(
        p1 == 0 and p2 == 0 for terms in terms_per_k for (p1, p2, p3) in terms
    )

    def evaluator(k, x, zbar):
        u1, u2, u3 = geometry.euclid_polarized(x, zbar)
        acc = np.zeros(np.broadcast(u1, u2, u3).shape, dtype=complex)
        for (p1, p2, p3), cval in terms_per_k[k].items():
            acc = acc + complex(cval) * u1**p1 * u2**p2 * u3**p3
        return acc

    return CovariantSymbol(geometry, nodes, tuple(jets), invariant, evaluator)


def symbol_from_plane_poly(
    geometry: ModelGeometry,
    terms_per_k: Sequence[dict],
    order: int = DEFAULT_ORDER,
    r: float = DEFAULT_CLASS[0],
    R: float = DEFAULT_CLASS[1],
    m: int = DEFAULT_CLASS[2],
    node_count: Optional[int] = None,
) -> CovariantSymbol:
    """Plane symbol from polynomials in (x, zbar).

    ``terms_per_k[k]`` maps pairs (p, q) to coefficients of x^p zbar^q;
    the single node sits at the origin so jets are the polynomials
    themselves (``node_count`` is accepted for signature parity and
    ignored).
    """
    if geometry.compact:
        raise ValueError("plane-polynomial symbols are a Bargmann construction")
    nodes = node_grid(geometry)
    domain = _jet_domain()
    coeffs = []
    for terms in terms_per_k:
        acc = PowerSeries.zero(2, order)
        for (p, q), cval in sorted(terms.items()):
            if p + q > order:
                raise ValueError("polynomial degree exceeds the jet order")
            acc.coeffs[p, q] += complex(cval)
        coeffs.append(acc)
    jets = (make_symbol(coeffs, domain, r, R, m),)

    def evaluator(k, x, zbar):
        acc = np.zeros(np.broadcast(x, zbar).shape, dtype=complex)
        for (p, q), cval in terms_per_k[k].items():
            acc = acc + complex(cval) * x**p * zbar**q
        return acc

    return CovariantSymbol(geometry, nodes, tuple(jets), False, evaluator)


def symbol_from_poly(geometry: ModelGeometry, terms_per_k: Sequence[dict], **kw) -> CovariantSymbol:
    if geometry.compact:
        return symbol_from_euclid_poly(geometry, terms_per_k, **kw)
    return symbol_from_plane_poly(geometry, terms_per_k, **kw)


def unit_covariant(geometry: ModelGeometry, K: int = 0, **kw) -> CovariantSymbol:
    """The constant symbol (1, 0, ..., 0)."""
    key = (0, 0, 0) if geometry.compact else (0, 0)
    terms = [{key: 1.0}] + [{} for _ in range(K)]
    sym = symbol_from_poly(geometry, terms, **kw)
    sym.rotation_invariant = True
    return sym


# ---------------------------------------------------------------------------
# the composition engine (one per geometry and cap pair)


@dataclass
class _Engine:
    geometry: ModelGeometry
    pair_cap: int
    param_cap: int
    morse: MorseFamily
    rho_jac: PairFamily  # (rho o kappa) J; block (0,0) is the W_0 weight
    x_powers: list  # (dx + iota_v)^s, s = 0..param_cap
    z_powers: list  # (dzbar + iota_vbar)^t, t = 0..param_cap

    @property
    def w0(self) -> np.ndarray:
        return self.rho_jac.block(0, 0)


# one engine per (geometry name, pair cap, param cap) for the life of the
# process; the lock makes concurrent callers wait for a single build
_ENGINE_CACHE: dict = {}
_ENGINE_LOCK = threading.Lock()


def _build_engine(geometry: ModelGeometry, pair_cap: int, param_cap: int) -> _Engine:
    P, M = pair_cap, param_cap
    u, ubar, dx, dzb = PairFamily.variables(P, M)
    L = geometry.two_phi_tilde_ring
    x, zbar = dx, dzb
    y = x + u
    wbar = zbar + ubar
    phase = L(x, wbar) - L(y, wbar) + L(y, zbar) - L(x, zbar)
    morse = morse_normalize_family(phase)
    rho = geometry.density_rho_ring(y, wbar)
    rho_jac = morse.transport(rho) * morse.jacobian
    return _Engine(geometry, P, M, morse, rho_jac,
                   _pair_powers(dx + morse.iota_v, M),
                   _pair_powers(dzb + morse.iota_vbar, M))


def _engine(geometry: ModelGeometry, pair_cap: int, param_cap: int) -> _Engine:
    key = (geometry.name, pair_cap, param_cap)
    with _ENGINE_LOCK:
        eng = _ENGINE_CACHE.get(key)
        if eng is None:
            eng = _ENGINE_CACHE[key] = _build_engine(geometry, pair_cap, param_cap)
    return eng


def _block_from_jet(jet: PowerSeries, cap: int) -> np.ndarray:
    """Jet coefficients as a (cap+1, cap+1) total-degree-masked block."""
    out = np.zeros((cap + 1, cap + 1), dtype=np.complex128)
    take = min(cap + 1, jet.coeffs.shape[0])
    out[:take, :take] = np.asarray(jet.coeffs, dtype=np.complex128)[:take, :take]
    out[_degree_grid(2, cap) > cap] = 0.0
    return out


def _substitute_left(jet: PowerSeries, eng: _Engine) -> PairFamily:
    """f(dx, dzbar + iota_vbar): the first slot is not integrated over."""
    M = eng.param_cap
    c = _block_from_jet(jet, M)
    acc = PairFamily.zeros(eng.pair_cap, M)
    for t in range(M + 1):
        if not np.any(c[:, t]):
            continue
        col = np.zeros((M + 1, M + 1), dtype=np.complex128)
        col[:, 0] = c[:, t]
        acc = acc + eng.z_powers[t].param_scale(col)
    return acc


def _substitute_right(jet: PowerSeries, eng: _Engine) -> PairFamily:
    """g(dx + iota_v, dzbar): the second slot is not integrated over."""
    M = eng.param_cap
    c = _block_from_jet(jet, M)
    acc = PairFamily.zeros(eng.pair_cap, M)
    for s in range(M + 1):
        if not np.any(c[s, :]):
            continue
        row = np.zeros((M + 1, M + 1), dtype=np.complex128)
        row[0, :] = c[s, :]
        acc = acc + eng.x_powers[s].param_scale(row)
    return acc


def _substitute_middle(jet: PowerSeries, eng: _Engine) -> PairFamily:
    """f(dx + iota_v, dzbar + iota_vbar): both slots integrated over."""
    M = eng.param_cap
    c = _block_from_jet(jet, M)
    acc = PairFamily.zeros(eng.pair_cap, M)
    for t in range(M + 1):
        inner = PairFamily.zeros(eng.pair_cap, M)
        live = False
        for s in range(M + 1):
            if c[s, t] != 0:
                inner = inner + eng.x_powers[s] * complex(c[s, t])
                live = True
        if live:
            acc = acc + inner * eng.z_powers[t]
    return acc


def _bracket_tower(F: PairFamily, G: PairFamily, eng: _Engine, top: int) -> list:
    """[W_0, ..., W_top] of the pair (F, G): n! times diagonal blocks of
    F G rhoJ.  Valid while 2 top <= pair_cap - 2 (the transport accuracy)."""
    prod = F * G
    full = _kernels.conv_pair(
        prod.coeffs, eng.rho_jac.coeffs, eng.pair_cap, eng.param_cap, diag_only=True
    )
    return [math.factorial(n) * np.ascontiguousarray(full[n, n]) for n in range(top + 1)]


def _check_pair(f: CovariantSymbol, g: CovariantSymbol) -> None:
    if f.geometry.name != g.geometry.name:
        raise ValueError(
            f"geometry mismatch: {f.geometry.name} vs {g.geometry.name}"
        )
    if f.order != g.order:
        raise ValueError("symbols carry jets of different orders")
    if len(f.nodes) != len(g.nodes):
        raise ValueError("symbols live on different node grids")


def _node_key(sym: CovariantSymbol, i: int) -> bytes:
    return b"".join(np.ascontiguousarray(c.coeffs).tobytes() for c in sym.jets[i].coeffs)


def _jet_list(sym: CovariantSymbol, i: int, K: int) -> list:
    """Coefficient jets at node i, padded with zero beyond the stored K."""
    zero = PowerSeries.zero(2, sym.order)
    stored = sym.jets[i].coeffs
    return [stored[k] if k <= sym.K else zero for k in range(K + 1)]


def _sharp_node(eng: _Engine, fjets: list, gjets: list, K: int) -> list:
    """(f sharp g)_k as param blocks at one node, k = 0..K."""
    M = eng.param_cap
    F = [_substitute_left(fjets[l], eng) for l in range(K + 1)]
    G = [_substitute_right(gjets[j], eng) for j in range(K + 1)]
    out = [np.zeros((M + 1, M + 1), dtype=np.complex128) for _ in range(K + 1)]
    for l in range(K + 1):
        if not np.any(F[l].coeffs):
            continue
        for j in range(K + 1 - l):
            if not np.any(G[j].coeffs):
                continue
            tower = _bracket_tower(F[l], G[j], eng, K - l - j)
            for n, block in enumerate(tower):
                out[l + j + n] += block
    return out


def _assemble(
    template: CovariantSymbol,
    per_node_blocks: list,
    K: int,
    rotation_invariant: bool,
    r=None,
    R=None,
    m=None,
) -> CovariantSymbol:
    order = template.order
    domain = template.jets[0].domain
    jets = []
    for blocks in per_node_blocks:
        coeffs = [PowerSeries(np.array(b), order) for b in blocks]
        jets.append(
            make_symbol(
                coeffs,
                domain,
                template.r if r is None else r,
                template.R if R is None else R,
                template.m if m is None else m,
            )
        )
    return CovariantSymbol(
        template.geometry, template.nodes.copy(), tuple(jets), rotation_invariant, None
    )


def sharp_product(
    f: CovariantSymbol, g: CovariantSymbol, K: int, pair_cap: Optional[int] = None
) -> CovariantSymbol:
    """The composition symbol of T(f) T(g), to order K.

    Coefficients beyond a factor's stored truncation enter as zero, which
    is exact for polynomial symbols.  The engine's pair cap defaults to
    2K + 2, the smallest cap whose transported density is accurate at the
    (K, K) diagonal block.
    """
    _check_pair(f, g)
    P = 2 * K + 2 if pair_cap is None else pair_cap
    if P < 2 * K + 2:
        raise ValueError(f"pair cap {P} cannot hold brackets to order {K} (need >= {2 * K + 2})")
    eng = _engine(f.geometry, P, f.order)
    per_node: list = []
    cache: dict = {}
    for i in range(len(f.nodes)):
        key = (_node_key(f, i), _node_key(g, i))
        if key not in cache:
            cache[key] = _sharp_node(eng, _jet_list(f, i, K), _jet_list(g, i, K), K)
        per_node.append(cache[key])
    # class bookkeeping: the product lives in the doubled class
    # S^{2r,2R}_m, but the stored parameters stay at the template's values
    # so summation cutoffs keep their natural scale; class-stability
    # checks pass explicit (2r, 2R) to norm_estimate instead
    invariant = f.rotation_invariant and g.rotation_invariant
    return _assemble(
        f,
        per_node,
        K,
        invariant,
        r=min(f.r, g.r),
        R=max(f.R, g.R),
        m=min(f.m, g.m),
    )


def solve_sharp(
    f: CovariantSymbol, h: CovariantSymbol, K: int, pair_cap: Optional[int] = None
) -> CovariantSymbol:
    """g with f sharp g = h to order K.

    Triangular recursion: the k-th equation reads
    W_0[f_0, g_k] = h_k - (brackets that only involve g_{<k}), and W_0 is
    multiplication by f_0 (rho J)_00 in the truncated jet ring, so each
    step is an exact division there.  The assembled residual is checked
    against 1e-9 before returning.
    """
    _check_pair(f, h)
    P = 2 * K + 2 if pair_cap is None else pair_cap
    if P < 2 * K + 2:
        raise ValueError(f"pair cap {P} cannot hold brackets to order {K} (need >= {2 * K + 2})")
    eng = _engine(f.geometry, P, f.order)
    M = eng.param_cap
    per_node: list = []
    cache: dict = {}
    for i in range(len(f.nodes)):
        key = (_node_key(f, i), _node_key(h, i))
        if key not in cache:
            cache[key] = _solve_node(eng, _jet_list(f, i, K), _jet_list(h, i, K), K, M)
        per_node.append(cache[key])
    invariant = f.rotation_invariant and h.rotation_invariant
    return _assemble(h, per_node, K, invariant)


def _solve_node(eng: _Engine, fjets: list, hjets: list, K: int, M: int) -> list:
    f0 = PowerSeries(_block_from_jet(fjets[0], M), M)
    if abs(f0.constant_term()) < 1e-12:
        raise ArithmeticError("leading coefficient f_0 vanishes at a node")
    Dinv = (f0 * PowerSeries(eng.w0, M)).reciprocal()
    F = [_substitute_left(fjets[l], eng) for l in range(K + 1)]
    g_blocks: list = []
    G_fams: list = []
    towers: dict = {}
    hb = [_block_from_jet(hjets[k], M) for k in range(K + 1)]
    for k in range(K + 1):
        acc = hb[k].copy()
        for j in range(k):
            for l in range(K + 1 - j):
                n = k - l - j
                if n < 0:
                    continue
                acc -= towers[(l, j)][n]
        gk = PowerSeries(acc, M) * Dinv
        g_blocks.append(gk.coeffs)
        Gk = _substitute_right(gk, eng)
        G_fams.append(Gk)
        for l in range(K + 1 - k):
            if np.any(F[l].coeffs):
                towers[(l, k)] = _bracket_tower(F[l], Gk, eng, K - l - k)
            else:
                towers[(l, k)] = [np.zeros((M + 1, M + 1), dtype=np.complex128)] * (K - l - k + 1)
    # assembled residual: the recursion is division in an exact ring, so
    # anything beyond float noise (relative to the solved coefficients,
    # which grow like powers of 1/f_0) means the caps were violated
    worst = 0.0
    for k in range(K + 1):
        acc = -hb[k]
        for j in range(k + 1):
            for l in range(K + 1 - j):
                n = k - l - j
                if n >= 0:
                    acc = acc + towers[(l, j)][n]
        worst = max(worst, float(np.max(np.abs(acc))))
    scale = max(1.0, max(float(np.max(np.abs(b))) for b in hb),
                max(float(np.max(np.abs(b))) for b in g_blocks))
    if worst > _SOLVE_TOL * scale:
        raise ArithmeticError(
            f"sharp recursion residual {worst:.3e} exceeds {_SOLVE_TOL} x {scale:.3e}")
    return g_blocks


# bergman_symbol results, keyed by geometry name rather than by the
# geometry object (model_by_name returns a new object on every call)
_BERGMAN_CACHE: dict = {}
_BERGMAN_LOCK = threading.Lock()


def bergman_symbol(
    geometry: ModelGeometry,
    K: int,
    order: int = DEFAULT_ORDER,
    r: float = DEFAULT_CLASS[0],
    R: float = DEFAULT_CLASS[1],
    m: int = DEFAULT_CLASS[2],
) -> CovariantSymbol:
    """The symbol a with S_N = N^d Psi^N sum_k N^{-k} a_k.

    Defined by T(1) T(a) = T(1): a = solve_sharp(unit, unit).  The plane
    gives (1, 0, ...), the sphere (1, 1, 0, ...), both exactly.

    Built once per process for each (geometry name, K, order, r, R, m) and
    shared by every caller, so its nodes and coefficient arrays are
    read-only.
    """
    key = (geometry.name, K, order, r, R, m)
    with _BERGMAN_LOCK:
        out = _BERGMAN_CACHE.get(key)
        if out is None:
            out = _BERGMAN_CACHE[key] = _build_bergman_symbol(geometry, K, order, r, R, m)
    return out


def _build_bergman_symbol(geometry, K, order, r, R, m) -> CovariantSymbol:
    one = unit_covariant(geometry, K=0, order=order, r=r, R=R, m=m)
    out = solve_sharp(one, one, K)
    out.rotation_invariant = True
    consts = tuple(complex(out.jets[0].coeffs[k].constant_term()) for k in range(K + 1))

    def evaluator(k, x, zbar):
        return np.full(np.broadcast(x, zbar).shape, consts[k], dtype=complex)

    # the solved jets are constants; expose them and the matching exact
    # evaluator
    flat = 0.0
    for jet in out.jets:
        for k in range(K + 1):
            block = np.array(jet.coeffs[k].coeffs, dtype=complex)
            block[0, 0] -= consts[k]
            flat = max(flat, float(np.max(np.abs(block))))
    if flat < 1e-8:
        out.global_eval = evaluator
        out.constant_coeffs = consts
    out.nodes.setflags(write=False)
    for jet in out.jets:
        for series in jet.coeffs:
            series.coeffs.setflags(write=False)
    return out


def sharp_inverse(f: CovariantSymbol, K: int, pair_cap: Optional[int] = None) -> CovariantSymbol:
    """f^{sharp -1}: the symbol with f sharp f^{sharp -1} = Bergman symbol."""
    a = bergman_symbol(f.geometry, K, order=f.order, r=f.r, R=f.R, m=f.m)
    return solve_sharp(f, a, K, pair_cap=pair_cap)


@dataclass
class NormGrowthReport:
    rows: list  # (r, R, m, norm_f, norm_inverse, ratio)
    max_ratio: float


def sharp_inverse_report(
    f: CovariantSymbol, K: int, grids: Sequence[tuple] = ((1.0, 2.0, 2), (1.0, 4.0, 3), (1.5, 6.75, 2))
) -> NormGrowthReport:
    """Inverse norm against C ||f|| across (r, R, m) parameter grids."""
    inv = sharp_inverse(f, K)
    rows = []
    worst = 0.0
    for (r, R, m) in grids:
        nf = f.norm_estimate(r=r, R=R, m=m)
        ni = inv.norm_estimate(r=r, R=R, m=m)
        ratio = ni / nf if nf > 0 else math.inf
        rows.append((r, R, m, nf, ni, ratio))
        worst = max(worst, ratio)
    return NormGrowthReport(rows, worst)


def contravariant_to_covariant(
    f: CovariantSymbol, K: int, pair_cap: Optional[int] = None
) -> CovariantSymbol:
    """Covariant symbol of the multiplication-and-project operator T_N(f).

    T_N(f) = S_N f S_N has the kernel of a covariant operator with the
    three-factor amplitude a(x, wbar) f~(y, wbar-extension) a(y, zbar):
    the Bergman symbol rides both kernel factors and the diagonal
    function's polarization sits in the middle with both slots
    substituted.  f is handed over as its K=0 jet family (the polarized
    extension near the diagonal).
    """
    P = 2 * K + 2 if pair_cap is None else pair_cap
    if P < 2 * K + 2:
        raise ValueError(f"pair cap {P} cannot hold brackets to order {K} (need >= {2 * K + 2})")
    if f.order < 1:
        raise ValueError("the diagonal function needs a positive jet order")
    a = bergman_symbol(f.geometry, K, order=f.order, r=f.r, R=f.R, m=f.m)
    eng = _engine(f.geometry, P, f.order)
    M = eng.param_cap
    per_node = []
    cache: dict = {}
    for i in range(len(f.nodes)):
        key = _node_key(f, i)
        if key not in cache:
            ajets = _jet_list(a, min(i, len(a.nodes) - 1), K)
            A_left = [_substitute_left(j, eng) for j in ajets]
            A_right = [_substitute_right(j, eng) for j in ajets]
            mids = [_substitute_middle(j, eng) for j in _jet_list(f, i, K)]
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
                        tower = _bracket_tower(lf, A_right[j], eng, K - l - fi - j)
                        for n, block in enumerate(tower):
                            out[l + fi + j + n] += block
            cache[key] = out
        per_node.append(cache[key])
    return _assemble(f, per_node, K, f.rotation_invariant)


def wick_degree_check(
    f: CovariantSymbol, g: CovariantSymbol, k: int, basepoint: int = 0, tol: float = 1e-8
) -> bool:
    """Order-(k+1) perturbation invariance of (f sharp g)_k at a node.

    The bracket tower differentiates f at most k times in the
    anti-holomorphic offset and g at most k times in the holomorphic one,
    so bumping either jet by a monomial vanishing to order k+1 must leave
    the k-th coefficient at the base point fixed.
    """
    _check_pair(f, g)
    if k + 1 > f.order:
        raise ValueError("jet order too small for the requested degree")
    eng = _engine(f.geometry, 2 * k + 2, f.order)
    fjets = _jet_list(f, basepoint, k)
    gjets = _jet_list(g, basepoint, k)
    base = _sharp_node(eng, fjets, gjets, k)[k][0, 0]

    bump = PowerSeries.zero(2, f.order)
    bump.coeffs[0, k + 1] = 1.0
    fj2 = list(fjets)
    fj2[0] = fj2[0] + bump
    left = abs(_sharp_node(eng, fj2, gjets, k)[k][0, 0] - base) < tol

    bump = PowerSeries.zero(2, g.order)
    bump.coeffs[k + 1, 0] = 1.0
    gj2 = list(gjets)
    gj2[0] = gj2[0] + bump
    right = abs(_sharp_node(eng, fjets, gj2, k)[k][0, 0] - base) < tol
    return left and right


# ---------------------------------------------------------------------------
# the Bargmann closed form and the normalized wrapper


def bargmann_wick_product(f: CovariantSymbol, g: CovariantSymbol, K: int) -> CovariantSymbol:
    """Closed Wick form on the plane: (f sharp g)_k = sum over n + l + j = k
    of (1/n!) (d/d zbar)^n f_l (d/d x)^n g_j.

    Independent of the stationary-phase engine; exists as the cross-check
    route for the flat model.
    """
    if f.geometry.compact:
        raise ValueError("the closed Wick form is the flat-model product")
    _check_pair(f, g)
    fjets = _jet_list(f, 0, K)
    gjets = _jet_list(g, 0, K)
    blocks = []
    for k in range(K + 1):
        acc = PowerSeries.zero(2, f.order)
        for n in range(k + 1):
            for l in range(k - n + 1):
                j = k - n - l
                df = fjets[l]
                dg = gjets[j]
                for _ in range(n):
                    df = df.diff(1)
                    dg = dg.diff(0)
                acc = acc + (df * dg) * (1.0 / math.factorial(n))
        blocks.append(acc.coeffs)
    return _assemble(f, [blocks], K, False)


def normalized_sharp(f: CovariantSymbol, g: CovariantSymbol, K: int) -> CovariantSymbol:
    """Product in the normalized convention.

    Raw sharp composes kernels N^d Psi^N f(N); the normalized convention
    weighs kernels by the Bergman symbol (T~(f) = T(f * a), so T~(1) is
    exactly S_N).  The wrapper computes ((f * a) sharp (g * a)) * a^{*-1}
    with * the coefficientwise Cauchy product.  Tests state which
    convention they exercise; everything upstream is the raw product.
    """
    from .function_spaces import star_inverse

    _check_pair(f, g)
    a = bergman_symbol(f.geometry, K, order=f.order, r=f.r, R=f.R, m=f.m)

    def _times(s: CovariantSymbol, t: CovariantSymbol) -> CovariantSymbol:
        jets = []
        for i in range(len(s.nodes)):
            sj, tj = s.jets[i], t.jets[min(i, len(t.jets) - 1)]
            K_out = min(K, sj.K + tj.K)
            coeffs = []
            for k in range(K_out + 1):
                acc = PowerSeries.zero(2, s.order)
                for l in range(k + 1):
                    if l <= sj.K and k - l <= tj.K:
                        acc = acc + sj.coeffs[l] * tj.coeffs[k - l]
                coeffs.append(acc)
            jets.append(make_symbol(coeffs, sj.domain, sj.r, sj.R, sj.m))
        return CovariantSymbol(s.geometry, s.nodes.copy(), tuple(jets),
                               s.rotation_invariant and t.rotation_invariant, None)

    fa = _times(f, a)
    ga = _times(g, a)
    raw = sharp_product(fa, ga, K)
    ainv_jets = tuple(star_inverse(j) for j in a.jets)
    ainv = CovariantSymbol(a.geometry, a.nodes.copy(), ainv_jets, True, None)
    return _times(raw, ainv)


# ---------------------------------------------------------------------------
# class stability


def class_stability_check(
    f: CovariantSymbol, g: CovariantSymbol, K: int, r: float, R: float, m: int
) -> dict:
    """The two-class product bound with the calibrated constant.

    Measures ||f sharp g|| in S^{2r,2R}_m against
    C ||f||_{r,R,m} ||g||_{2r,2R,m}.
    """
    prod = sharp_product(f, g, K)
    nf = f.norm_estimate(r=r, R=R, m=m)
    ng = g.norm_estimate(r=2.0 * r, R=2.0 * R, m=m)
    np_ = prod.norm_estimate(r=2.0 * r, R=2.0 * R, m=m)
    bound = constants.SHARP_CLASS_C * nf * ng
    return {
        "product_norm": np_,
        "bound": bound,
        "holds": np_ <= bound,
        "ratio": np_ / (nf * ng) if nf * ng > 0 else math.inf,
    }
