"""Sharp-product calculus for covariant symbols on the model geometries.

A covariant symbol is a coefficient family f ~ sum_k N^{-k} f_k of
functions of (x, zbar) near the diagonal.  Each f_k is stored as Taylor
jets at a grid of diagonal base points, one array of blocks indexed by
(node, k), and every jet lives in that point's normal frame: the chart is
moved (rotation for the sphere, translation for the plane) so the base
point sits at the origin.  In the moved chart the potential changes only
by a cocycle that cancels from the four-point phase, and the volume
density keeps its base form, so a single Morse normalization per geometry
serves every node, and jets stay O(1) even at nodes far out in the affine
chart.

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

Composition, inversion and the contravariant transform share one driver:
``_per_node`` runs the per-node step, and ``_wick_sum`` is the sum above.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Optional, Sequence

import numpy as np

from . import constants, _kernels
from .function_spaces import Domain, estimate_symbol_norm, make_symbol
from .geometry import ModelGeometry
from .series import PowerSeries
from .stationary_phase import MorseFamily, PairFamily, _pair_powers, morse_normalize_family

SPHERE_NODE_COUNT = 12
JET_DOMAIN_RADIUS = 0.35
DEFAULT_ORDER = 8
DEFAULT_CLASS = (1.0, 2.0, 2)  # (r, R, m)

_SOLVE_TOL = 1e-9


# ---------------------------------------------------------------------------
# node grids and normal frames


def _node_angles(count: int) -> np.ndarray:
    """Polar angles (j + 1/2) pi / count of the sphere's meridian nodes."""
    return (np.arange(count) + 0.5) * np.pi / count


def node_grid(geometry: ModelGeometry, count: Optional[int] = None) -> np.ndarray:
    """Diagonal base points, as chart coordinates.

    The sphere grid walks a meridian from pole to pole: polar angles
    (j + 1/2) pi / count, chart points tan(theta/2).  One node at the
    origin suffices on the plane, where translations act transitively, so
    a plane ``count`` raises.
    """
    if not geometry.compact:
        if count is not None:
            raise ValueError("the plane has one node at the origin: no grid to refine")
        return np.zeros(1, dtype=complex)
    if count is None:
        count = SPHERE_NODE_COUNT
    return np.tan(_node_angles(count) / 2.0).astype(complex)


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
    """Node jets of an N^{-1} coefficient family near the diagonal.

    ``coeffs[i, k]`` is the jet of f_k at node i: an (order+1, order+1)
    complex block in the node-i normal frame offsets (delta x, delta zbar),
    holomorphic degree on the first axis, anti-holomorphic on the second,
    zero above total degree ``order``.  So ``coeffs`` has shape
    (nodes, K+1, order+1, order+1), and K and order are read off it.  The
    jets are authoritative for the calculus; (r, R, m) is the symbol class
    ``norm_estimate`` measures them in.  ``exact``, when present, holds
    the polynomials f_k themselves (one exponent -> coefficient dict per k,
    over ``geometry.coordinates``); ``value`` and ``covariant_matrix``
    prefer them to the jets.
    """

    geometry: ModelGeometry
    nodes: np.ndarray
    coeffs: np.ndarray
    r: float
    R: float
    m: int
    rotation_invariant: bool = False
    exact: Optional[tuple] = None

    @property
    def K(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def order(self) -> int:
        return self.coeffs.shape[2] - 1

    def jet_eval(self, node_index: int, weights: dict, a, bbar):
        """sum_k weights[k] times coefficient k's node jet at frame offsets
        (vectorized); the blocks are combined before the powers of the
        offsets meet them."""
        blocks = self.coeffs[node_index]
        c = np.zeros(blocks.shape[1:], dtype=complex)
        for k, w in weights.items():
            c += w * blocks[k]
        pow_a = np.asarray(a, dtype=complex)[..., None] ** np.arange(c.shape[0])
        pow_b = np.asarray(bbar, dtype=complex)[..., None] ** np.arange(c.shape[1])
        return np.sum((pow_a @ c) * pow_b, axis=-1)

    def value(self, weights: dict, x, zbar):
        """sum_k weights[k] times coefficient k at polarized points: the
        exact polynomials when there are (terms summed in order from a 0-d
        zero, coordinates raised only to positive powers, so a constant
        stays one broadcast scalar), else the located node's jet."""
        if self.exact is not None:
            coords = None
            acc = np.zeros((), dtype=complex)
            for k, w in weights.items():
                for expo, cval in self.exact[k].items():
                    term = w * complex(cval)
                    for i, p in enumerate(expo):
                        if p:
                            if coords is None:
                                coords = (self.geometry.euclid_polarized(x, zbar)
                                          if self.geometry.compact else (x, zbar))
                            term = term * coords[i] ** p
                    acc = acc + term
            return np.broadcast_to(acc, np.broadcast(x, zbar).shape)
        idx, a, bbar = frame_pair_offsets(self, x, zbar)
        flat_idx, fa, fb = np.ravel(idx), np.ravel(a), np.ravel(bbar)
        out = np.zeros(flat_idx.shape, dtype=complex)
        for i in sorted(set(flat_idx.tolist())):  # not np.unique: it imports numpy.ma
            sel = flat_idx == i
            out[sel] = self.jet_eval(i, weights, fa[sel], fb[sel])
        return out.reshape(np.shape(idx))

    def norm_estimate(self, r=None, R=None, m=None) -> float:
        """Symbol-class norm: worst node-jet estimate, each node's jets
        measured as an AnalyticSymbol of the symbol's class."""
        domain = _jet_domain()
        return max(
            estimate_symbol_norm(
                make_symbol([PowerSeries(b, self.order) for b in blocks], domain,
                            self.r, self.R, self.m),
                r=r, R=R, m=m)
            for blocks in self.coeffs)


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
        x, zbar = np.broadcast_arrays(x, zbar)
        idx = np.zeros(x.shape, dtype=int)
    else:
        if symbol.rotation_invariant:
            # f(e^{ig} x, e^{-ig} zbar) = f(x, zbar): rotate the pair midpoint
            # onto the positive real meridian before taking offsets
            phase = np.angle(x + np.conj(zbar) + 1e-300)
            x = x * np.exp(-1j * phase)
            zbar = zbar * np.exp(1j * phase)
        theta_x = 2.0 * np.arctan(np.abs(x))
        theta_z = 2.0 * np.arctan(np.abs(np.conj(zbar)))
        theta_mid = 0.5 * (theta_x + theta_z)
        idx = np.argmin(np.abs(theta_mid[..., None] - _node_angles(len(symbol.nodes))), axis=-1)
    nodes = symbol.nodes[idx]
    return idx, chart_to_frame(geom, nodes, x), chart_to_frame_bar(geom, nodes, zbar)


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
    grid_theta = _node_angles(len(symbol.nodes))
    for i in range(len(symbol.nodes) - 1):
        theta_mid = 0.5 * (grid_theta[i] + grid_theta[i + 1])
        z_mid = math.tan(theta_mid / 2.0)
        offsets = []
        for which in (i, i + 1):
            node = symbol.nodes[which]
            a = chart_to_frame(geom, node, z_mid)
            if abs(a) > JET_DOMAIN_RADIUS:
                raise ValueError("node spacing exceeds the jet domain")
            offsets.append((which, a, chart_to_frame_bar(geom, node, np.conj(z_mid))))
        for k in range(symbol.K + 1):
            u, v = (complex(symbol.jet_eval(which, {k: 1.0}, a, bbar)) for which, a, bbar in offsets)
            worst = max(worst, abs(u - v))
    return worst


# ---------------------------------------------------------------------------
# symbol builders


def _jet_domain() -> Domain:
    return Domain.disk(JET_DOMAIN_RADIUS) * Domain.disk(JET_DOMAIN_RADIUS)


def _frame_coordinates(geometry: ModelGeometry, node: complex, order: int) -> tuple:
    """Jets, in a node's normal frame, of the coordinates symbol polynomials
    are written in.

    On the plane these are the offsets (dx, dzbar) at its single node.  On
    the sphere they are the polarized ambient coordinates (x1, x2, x3):
    building them through the global chart would multiply series with
    coefficients ~ node^p and cancel catastrophically near the pole, so
    they are the base-point jets of ``euclid_polarized`` carried by the
    rigid rotation that takes the node to the origin: x2 is fixed and
    (x1, x3) rotate by the node's polar angle.
    """
    dx, dzbar = PowerSeries.variable(0, 2, order), PowerSeries.variable(1, 2, order)
    if not geometry.compact:
        return dx, dzbar
    lam = complex(node)
    if abs(lam.imag) > 1e-14:
        raise ValueError("sphere nodes sit on the real meridian")
    lam = lam.real
    base1, base2, base3 = geometry.euclid_polarized(dx, dzbar)
    c = (1.0 - lam * lam) / (1.0 + lam * lam)
    s = 2.0 * lam / (1.0 + lam * lam)
    return (base1 * c + base3 * s, base2, base1 * (-s) + base3 * c)


def symbol_from_poly(
    geometry: ModelGeometry,
    terms_per_k: Sequence[dict],
    order: int = DEFAULT_ORDER,
    r: float = DEFAULT_CLASS[0],
    R: float = DEFAULT_CLASS[1],
    m: int = DEFAULT_CLASS[2],
    node_count: Optional[int] = None,
) -> CovariantSymbol:
    """Symbol whose coefficient f_k is a polynomial.

    ``terms_per_k[k]`` maps exponent tuples to coefficients: triples
    (e1, e2, e3) of the polarized ambient coordinates x1^e1 x2^e2 x3^e3 on
    the sphere, pairs (p, q) of x^p zbar^q on the plane.  Each node's jets
    are the same monomials in its ``_frame_coordinates``, multiplied in the
    truncated jet ring; the plane's single node sits at the origin, so its
    jets are the polynomials themselves and a term above the jet order
    raises.  The polynomials are kept as the symbol's ``exact``.
    ``node_count`` refines the sphere's meridian grid when jets of a
    derived symbol will be read far from the diagonal.
    """
    arity = 3 if geometry.compact else 2
    for terms in terms_per_k:
        for expo in terms:
            if len(expo) != arity:
                raise ValueError(f"exponents {expo} need {arity} entries on this model")
            if not geometry.compact and sum(expo) > order:
                raise ValueError("polynomial degree exceeds the jet order")
    nodes = node_grid(geometry, node_count)
    coeffs = np.zeros((len(nodes), len(terms_per_k), order + 1, order + 1), dtype=complex)
    for i, node in enumerate(nodes):
        frame = _frame_coordinates(geometry, node, order)
        for k, terms in enumerate(terms_per_k):
            acc = PowerSeries.zero(2, order)
            for expo, cval in sorted(terms.items()):
                mono = PowerSeries.constant(complex(cval), 2, order)
                for fac, p in zip(frame, expo):
                    for _ in range(p):
                        mono = mono * fac
                acc = acc + mono
            coeffs[i, k] = acc.coeffs
    # rotation about the polar axis fixes x3 alone
    invariant = geometry.compact and all(
        expo[0] == 0 and expo[1] == 0 for terms in terms_per_k for expo in terms
    )
    return CovariantSymbol(geometry, nodes, coeffs, float(r), float(R), int(m), invariant,
                           tuple(map(dict, terms_per_k)))


def unit_covariant(geometry: ModelGeometry, K: int = 0, **kw) -> CovariantSymbol:
    """The constant symbol (1, 0, ..., 0)."""
    key = (0, 0, 0) if geometry.compact else (0, 0)
    terms = [{key: 1.0}] + [{} for _ in range(K)]
    return symbol_from_poly(geometry, terms, **kw)


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
    u, ubar, x, zbar = PairFamily.variables(P, M)
    morse = morse_normalize_family(geometry.phase_phi1(x, x + u, zbar + ubar, zbar))
    # rho at the flattened variables, by the density's own formula
    y, wbar = x + morse.iota_v, zbar + morse.iota_vbar
    rho_jac = geometry.density_rho(y, wbar) * morse.jacobian
    return _Engine(geometry, P, M, morse, rho_jac, _pair_powers(y, M), _pair_powers(wbar, M))


def _engine(geometry: ModelGeometry, pair_cap: int, param_cap: int) -> _Engine:
    key = (geometry.name, pair_cap, param_cap)
    with _ENGINE_LOCK:
        eng = _ENGINE_CACHE.get(key)
        if eng is None:
            eng = _ENGINE_CACHE[key] = _build_engine(geometry, pair_cap, param_cap)
    return eng


def _pair_cap(K: int, pair_cap: Optional[int]) -> int:
    """The engine's pair cap for brackets to order K: 2K + 2 by default."""
    P = 2 * K + 2 if pair_cap is None else pair_cap
    if P < 2 * K + 2:
        raise ValueError(f"pair cap {P} cannot hold brackets to order {K} (need >= {2 * K + 2})")
    return P


def _substitute(c: np.ndarray, eng: _Engine, left: bool) -> PairFamily:
    """The left factor f(dx, dzbar + iota_vbar) or the right factor
    g(dx + iota_v, dzbar) of a jet block c: the slot that is not integrated
    over stays a parameter, the other takes the Morse substitution power by
    power."""
    M = eng.param_cap
    powers = eng.z_powers if left else eng.x_powers
    acc = PairFamily.zeros(eng.pair_cap, M)
    for s in range(M + 1):
        line = c[:, s] if left else c[s, :]
        if not np.any(line):
            continue
        kept = np.zeros((M + 1, M + 1), dtype=np.complex128)
        if left:
            kept[:, 0] = line
        else:
            kept[0, :] = line
        acc = acc + powers[s].param_scale(kept)
    return acc


def _substitute_middle(c: np.ndarray, eng: _Engine) -> PairFamily:
    """f(dx + iota_v, dzbar + iota_vbar) of a jet block c: both slots
    integrated over."""
    M = eng.param_cap
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
    F G rhoJ.  Valid while 2 top <= pair_cap - 2: rhoJ is exact through
    pair degree pair_cap - 2."""
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


def _coeffs_to(sym: CovariantSymbol, K: int) -> np.ndarray:
    """sym.coeffs cut, or padded with zero blocks, to coefficients 0..K."""
    out = np.zeros((len(sym.nodes), K + 1) + sym.coeffs.shape[2:], dtype=complex)
    top = min(K, sym.K) + 1
    out[:, :top] = sym.coeffs[:, :top]
    return out


def _per_node(syms: Sequence[CovariantSymbol], K: int, solve: Callable) -> list:
    """solve(jets of syms[0], jets of syms[1], ...) at every node, each a
    (K+1)-stack of blocks; nodes whose jets are byte-identical in every
    symbol share one call."""
    jets = [_coeffs_to(s, K) for s in syms]
    per_node: list = []
    cache: dict = {}
    for i in range(len(syms[0].nodes)):
        key = tuple(c[i].tobytes() for c in jets)
        if key not in cache:
            cache[key] = solve(*(c[i] for c in jets))
        per_node.append(cache[key])
    return per_node


def _wick_sum(eng: _Engine, F: list, G: list, K: int) -> list:
    """sum over l + j + n = k of W_n[F_l, G_j] as param blocks, k = 0..K,
    for substituted families F_l, G_j (zero families are skipped)."""
    M = eng.param_cap
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


def _sharp_node(eng: _Engine, fjets: np.ndarray, gjets: np.ndarray, K: int) -> list:
    """(f sharp g)_k as param blocks at one node, k = 0..K."""
    F = [_substitute(c, eng, left=True) for c in fjets]
    G = [_substitute(c, eng, left=False) for c in gjets]
    return _wick_sum(eng, F, G, K)


def _assemble(
    template: CovariantSymbol, per_node_blocks: list, rotation_invariant: bool, **fields
) -> CovariantSymbol:
    """The per-node blocks as a symbol on the template's grid, in its class
    unless ``fields`` sets (r, R, m)."""
    return replace(template, nodes=template.nodes.copy(),
                   coeffs=np.array(per_node_blocks, dtype=complex),
                   rotation_invariant=rotation_invariant, exact=None, **fields)


def sharp_product(
    f: CovariantSymbol, g: CovariantSymbol, K: int, pair_cap: Optional[int] = None
) -> CovariantSymbol:
    """The composition symbol of T(f) T(g), to order K.

    Coefficients beyond a factor's stored truncation enter as zero, which
    is exact for polynomial symbols.  The engine's pair cap defaults to
    2K + 2, the smallest cap whose density rhoJ is exact at the (K, K)
    diagonal block.
    """
    _check_pair(f, g)
    P = _pair_cap(K, pair_cap)
    eng = _engine(f.geometry, P, f.order)
    per_node = _per_node((f, g), K, lambda fj, gj: _sharp_node(eng, fj, gj, K))
    # class bookkeeping: the product lives in the doubled class
    # S^{2r,2R}_m, but the stored parameters stay at the template's values
    # so summation cutoffs keep their natural scale; class-stability
    # checks pass explicit (2r, 2R) to norm_estimate instead
    invariant = f.rotation_invariant and g.rotation_invariant
    return _assemble(f, per_node, invariant, r=min(f.r, g.r), R=max(f.R, g.R), m=min(f.m, g.m))


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
    P = _pair_cap(K, pair_cap)
    eng = _engine(f.geometry, P, f.order)
    per_node = _per_node((f, h), K, lambda fj, hj: _solve_node(eng, fj, hj, K))
    invariant = f.rotation_invariant and h.rotation_invariant
    return _assemble(h, per_node, invariant)


def _solve_node(eng: _Engine, fjets: np.ndarray, hjets: np.ndarray, K: int) -> list:
    M = eng.param_cap
    f0 = PowerSeries(fjets[0], M)
    if abs(f0.constant_term()) < 1e-12:
        raise ArithmeticError("leading coefficient f_0 vanishes at a node")
    Dinv = (f0 * PowerSeries(eng.w0, M)).reciprocal()
    F = [_substitute(c, eng, left=True) for c in fjets]
    # rem[k] is h_k minus every bracket W_n[f_l, g_j] with l + j + n = k
    # found so far, subtracted as soon as g_j is solved.  When step k is
    # reached only g_{<k} have entered, so rem[k] is the right-hand side of
    # W_0[f_0, g_k]; after the last step it is minus the assembled residual
    rem = hjets.copy()
    g_blocks: list = []
    for k in range(K + 1):
        gk = PowerSeries(rem[k], M) * Dinv
        g_blocks.append(gk.coeffs)
        Gk = _substitute(gk.coeffs, eng, left=False)
        for l in range(K + 1 - k):
            if np.any(F[l].coeffs):
                for n, block in enumerate(_bracket_tower(F[l], Gk, eng, K - l - k)):
                    rem[l + k + n] -= block
    # the recursion is division in an exact ring, so a residual beyond
    # float noise (relative to the solved coefficients, which grow like
    # powers of 1/f_0) means the caps were violated
    worst = float(np.max(np.abs(rem)))
    scale = max(1.0, float(np.max(np.abs(hjets))), float(np.max(np.abs(g_blocks))))
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
    shared by every caller, so its nodes, coefficient arrays and
    polynomials are read-only.
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
    # both models are homogeneous, so the exact symbol is constant: pin its
    # coefficients from node 0, and every node's jets to them, which drops
    # the solve's rounding from the non-constant entries
    consts = tuple(complex(c) for c in out.coeffs[0, :, 0, 0])
    out.coeffs[:] = 0.0
    out.coeffs[:, :, 0, 0] = consts
    key = (0,) * len(geometry.coordinates)
    out.exact = tuple(MappingProxyType({key: c}) for c in consts)
    out.nodes.setflags(write=False)
    out.coeffs.setflags(write=False)
    return out


def sharp_inverse(f: CovariantSymbol, K: int, pair_cap: Optional[int] = None) -> CovariantSymbol:
    """f^{sharp -1}: the symbol with f sharp f^{sharp -1} = Bergman symbol."""
    a = bergman_symbol(f.geometry, K, order=f.order, r=f.r, R=f.R, m=f.m)
    return solve_sharp(f, a, K, pair_cap=pair_cap)


def contravariant_to_covariant(
    f: CovariantSymbol, K: int, pair_cap: Optional[int] = None
) -> CovariantSymbol:
    """Covariant symbol of the multiplication-and-project operator T_N(f).

    T_N(f) = S_N f S_N has the kernel of a covariant operator with the
    three-factor amplitude a(x, wbar) f~(y, wbar-extension) a(y, zbar):
    the Bergman symbol rides both kernel factors and the diagonal
    function's polarization sits in the middle with both slots
    substituted.  f is handed over as its jet family (the polarized
    extension near the diagonal).  Per node, L_k = sum_{l+i=k} a_l f_i
    (left and middle substitutions) enters the Wick sum against a (right).
    """
    P = _pair_cap(K, pair_cap)
    if f.order < 1:
        raise ValueError("the diagonal function needs a positive jet order")
    a = bergman_symbol(f.geometry, K, order=f.order, r=f.r, R=f.R, m=f.m)
    eng = _engine(f.geometry, P, f.order)
    # the Bergman symbol is constant and its node jets are byte-identical,
    # so its substitutions serve every node
    A_left = [_substitute(c, eng, left=True) for c in a.coeffs[0]]
    A_right = [_substitute(c, eng, left=False) for c in a.coeffs[0]]

    def node(fjets: np.ndarray) -> list:
        mids = [_substitute_middle(c, eng) for c in fjets]
        L = []
        for k in range(K + 1):
            terms = [A_left[l] * mids[k - l] for l in range(k + 1)
                     if np.any(A_left[l].coeffs) and np.any(mids[k - l].coeffs)]
            L.append(sum(terms, PairFamily.zeros(eng.pair_cap, eng.param_cap)))
        return _wick_sum(eng, L, A_right, K)

    return _assemble(f, _per_node((f,), K, node), f.rotation_invariant)


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
    fjets = _coeffs_to(f, k)[basepoint]
    gjets = _coeffs_to(g, k)[basepoint]
    base = _sharp_node(eng, fjets, gjets, k)[k][0, 0]

    fj2 = fjets.copy()
    fj2[0, 0, k + 1] += 1.0
    left = abs(_sharp_node(eng, fj2, gjets, k)[k][0, 0] - base) < tol

    gj2 = gjets.copy()
    gj2[0, k + 1, 0] += 1.0
    right = abs(_sharp_node(eng, fjets, gj2, k)[k][0, 0] - base) < tol
    return left and right


# ---------------------------------------------------------------------------
# the Bargmann closed form


def bargmann_wick_product(f: CovariantSymbol, g: CovariantSymbol, K: int) -> CovariantSymbol:
    """Closed Wick form on the plane: (f sharp g)_k = sum over n + l + j = k
    of (1/n!) (d/d zbar)^n f_l (d/d x)^n g_j.

    Independent of the stationary-phase engine; exists as the cross-check
    route for the flat model.
    """
    if f.geometry.compact:
        raise ValueError("the closed Wick form is the flat-model product")
    _check_pair(f, g)
    fjets = _coeffs_to(f, K)[0]
    gjets = _coeffs_to(g, K)[0]
    blocks = []
    for k in range(K + 1):
        acc = PowerSeries.zero(2, f.order)
        for n in range(k + 1):
            for l in range(k - n + 1):
                j = k - n - l
                df = PowerSeries(fjets[l], f.order)
                dg = PowerSeries(gjets[j], g.order)
                for _ in range(n):
                    df = df.diff(1)
                    dg = dg.diff(0)
                acc = acc + (df * dg) * (1.0 / math.factorial(n))
        blocks.append(acc.coeffs)
    return _assemble(f, [blocks], False)


# ---------------------------------------------------------------------------
# class stability


def class_stability_check(
    f: CovariantSymbol, g: CovariantSymbol, K: int, grids: Sequence[tuple]
) -> list:
    """The two-class product bound with the calibrated constant, per grid.

    One product f sharp g serves every (r, R, m) in ``grids``; each row
    measures ||f sharp g|| in S^{2r,2R}_m against
    C ||f||_{r,R,m} ||g||_{2r,2R,m}.
    """
    prod = sharp_product(f, g, K)
    rows = []
    for (r, R, m) in grids:
        nf = f.norm_estimate(r=r, R=R, m=m)
        ng = g.norm_estimate(r=2.0 * r, R=2.0 * R, m=m)
        np_ = prod.norm_estimate(r=2.0 * r, R=2.0 * R, m=m)
        bound = constants.SHARP_CLASS_C * nf * ng
        rows.append(dict(r=r, R=R, m=m, norm_f=nf, norm_g=ng, product_norm=np_, bound=bound,
                         holds=np_ <= bound, ratio=np_ / (nf * ng) if nf * ng > 0 else math.inf))
    return rows
