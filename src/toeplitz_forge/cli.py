"""Experiment runner: reproducible sweeps with CSV/JSON artifacts.

Every subcommand writes ``<out>/<name>.csv`` (fixed header, deterministic
body) and ``<out>/<name>.json`` (schema-versioned summary; the only place
timestamps appear).  Exit codes: 0 success, 1 check failure, 2 config
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys

import numpy as np

# Library modules are imported inside the handlers that call them, so each
# launch compiles and loads only what its subcommand runs.

SCHEMA_VERSION = "1.0"


# ---------------------------------------------------------------------------
# artifacts


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if x is None:
        return ""
    return str(x)


def _write_csv(out_dir: str, name: str, header, rows) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(cell) for cell in row) + "\n")
    return path


def _write_summary(out_dir: str, name: str, command: str, settings: dict, payload: dict, passed: bool) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.json")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "settings": {k: _fmt(v) if not isinstance(v, (list, dict)) else v for k, v in settings.items()},
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "passed": bool(passed),
    }
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# config files and argument plumbing


def _config_error(message: str) -> "SystemExit":
    print(f"config error: {message}", file=sys.stderr)
    return SystemExit(2)


def _load_config(path: str) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise _config_error(f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise _config_error(f"cannot read {path}: {exc.strerror}")
    return values


def _apply_config(sub: argparse.ArgumentParser, path: str) -> None:
    """Install the config file's values as the subcommand's defaults."""
    actions = {a.dest: a for a in sub._actions}
    values = {}
    for dest, raw in _load_config(path).items():
        action = actions.get(dest)
        if action is None or not action.option_strings or dest == "help":
            raise _config_error(f"{dest!r} is not an option of this subcommand")
        caster = action.type or str
        try:
            values[dest] = caster(raw)
        except (TypeError, ValueError) as exc:
            raise _config_error(f"bad value for {dest!r}: {exc}")
    sub.set_defaults(**values)


def _parse_n_list(text: str):
    try:
        ns = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"N-list must be comma-separated integers, got {text!r}")
    if not ns:
        raise ValueError("N-list is empty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("N-list must be strictly increasing")
    if ns[0] < 1:
        raise ValueError("levels must be positive")
    return ns


def _geometry(name: str):
    from . import geometry as geo

    alias = {"plane": "bargmann"}
    try:
        return geo.model_by_name(alias.get(name, name))
    except (KeyError, ValueError):
        raise ValueError(f"unknown geometry {name!r}; expected plane or sphere")


def _parse_poly(text: str) -> dict:
    """poly:<e1,e2,e3=coeff;...> (sphere) or poly:<p,q=coeff;...> (plane)."""
    body = text[len("poly:"):]
    terms = {}
    for chunk in body.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        expo, _, coeff = chunk.partition("=")
        if not coeff:
            raise ValueError(f"polynomial term {chunk!r} needs '=coeff'")
        try:
            key = tuple(int(e) for e in expo.split(","))
            val = complex(coeff) if ("j" in coeff) else float(coeff)
        except ValueError:
            raise ValueError(f"cannot parse polynomial term {chunk!r}")
        terms[key] = val
    if not terms:
        raise ValueError(f"no terms in polynomial spec {text!r}")
    return terms


_NAMED_SPHERE = {
    "x1": {(1, 0, 0): 1.0},
    "x2": {(0, 1, 0): 1.0},
    "x3": {(0, 0, 1): 1.0},
}


def _symbol_terms(spec: str, geometry) -> dict:
    if spec.startswith("poly:"):
        return _parse_poly(spec)
    if spec == "one":
        return {(0,) * len(geometry.coordinates): 1.0}
    if geometry.compact and spec in _NAMED_SPHERE:
        return dict(_NAMED_SPHERE[spec])
    raise ValueError(f"unknown symbol spec {spec!r}; use a name or poly:<terms>")


def _parse_domain(text: str):
    from . import function_spaces as fs

    kind, _, rest = text.partition(":")
    try:
        if kind == "interval":
            lo, hi = (float(p) for p in rest.split(","))
            return fs.Domain.interval(lo, hi)
        if kind == "disk":
            return fs.Domain.disk(float(rest))
    except (TypeError, ValueError):
        pass
    raise ValueError(f"bad domain {text!r}; use interval:lo,hi or disk:radius")


# ---------------------------------------------------------------------------
# lemmas verify


def _cmd_lemmas(args) -> tuple:
    from . import combinatorics as cb

    if args.action != "verify":
        raise ValueError(f"unknown lemmas action {args.action!r}")
    if args.n < 1 or args.d < 0 or args.m_max < 0 or args.ell_max < 1:
        raise ValueError("need n >= 1, d >= 0, m-max >= 0, ell-max >= 1")
    rows = []
    all_hold = True
    for m in cb.legal_m_range(args.n, args.d, args.m_max):
        for ell in range(1, args.ell_max + 1):
            res = cb.lem_hard_sum(args.n, args.d, ell, m)
            rows.append((args.n, args.d, m, ell, float(res.value), float(res.bound), res.holds))
            all_hold = all_hold and res.holds
    payload = {"rows": len(rows), "violations": sum(1 for r in rows if not r[-1])}
    return "lemmas verify", ("n", "d", "m", "ell", "value", "bound", "holds"), rows, payload, all_hold


# ---------------------------------------------------------------------------
# symbols {norm|product|inverse|sum}


def _symbols_coeffs(args):
    if args.coeffs == "factorial":
        return [args.R ** k * math.factorial(k) for k in range(args.K + 1)]
    try:
        coeffs = [float(c) for c in args.coeffs.split(",")]
    except ValueError:
        raise ValueError(f"coeffs must be comma-separated floats or 'factorial', got {args.coeffs!r}")
    if len(coeffs) != args.K + 1:
        raise ValueError(f"coeffs holds {len(coeffs)} values, K = {args.K} needs {args.K + 1}")
    return coeffs


def _cmd_symbols(args) -> tuple:
    from . import function_spaces as fs

    if args.K < 0:
        raise ValueError("K must be >= 0")
    domain = _parse_domain(args.domain)
    coeffs = _symbols_coeffs(args)
    sym = fs.make_symbol(coeffs, domain, r=args.r, R=args.R, m=args.m)
    rows = []
    payload = {}
    passed = True
    if args.action == "norm":
        total = max(sym.constant, 1e-300)
        for k, a_k in enumerate(coeffs):
            single = fs.make_symbol([0.0] * k + [a_k], domain, r=args.r, R=args.R, m=args.m)
            rows.append((k, 0, single.constant / total, sym.constant))
        payload["norm"] = sym.constant
        passed = all(r[2] <= 1.0 + 1e-12 for r in rows)
    elif args.action == "product":
        if args.m < 4:
            raise ValueError("the product bound is certified for m >= 4 only")
        other = fs.unit_symbol(sym)
        report = fs.product_bound_check(sym, other)
        prod = report["product"]
        for k in range(prod.K + 1):
            mag = abs(prod.coeffs[k].constant_term())
            rows.append((k, 0, mag / max(report["bound"], 1e-300), report["bound"]))
        payload.update(product_norm=report["product_norm"], bound=report["bound"])
        passed = bool(report["holds"])
    elif args.action == "inverse":
        report = fs.star_inverse_report(sym)
        for k in range(report.inverse.K + 1):
            mag = abs(report.inverse.coeffs[k].constant_term())
            rows.append((k, 0, mag / max(report.estimate, 1e-300), report.paper_bound))
        payload.update(
            min_abs_a0=report.min_abs_a0,
            estimate=report.estimate,
            paper_bound=report.paper_bound,
        )
        passed = bool(report.holds)
    elif args.action == "sum":
        res = fs.summation(sym, args.N)
        for k, a_k in enumerate(coeffs):
            weight = abs(a_k) / (args.R ** k * math.factorial(k))
            rows.append((k, 0, weight, res.uniform_bound))
        payload.update(
            K_used=res.K_used,
            sup_abs=res.sup_abs,
            uniform_bound=res.uniform_bound,
            tail_estimate=res.tail_estimate,
        )
        passed = res.sup_abs <= res.uniform_bound * (1.0 + 1e-12)
    else:
        raise ValueError(f"unknown symbols action {args.action!r}")
    return f"symbols {args.action}", ("k", "j", "ratio", "constant"), rows, payload, passed


# ---------------------------------------------------------------------------
# geometry check


def _geometry_rows(geometry, which: str):
    N = 16
    if geometry.compact:
        base = [math.tan(t / 2.0) for t in (0.4, 0.9, 1.4, 1.9, 2.4)]
    else:
        base = [0.3, 0.8, 1.3]
    # the raw kernel is this constant times Psi^N, which is 1 at the origin
    density = float(np.real(geometry.bergman_kernel(N, 0.0, 0.0)))
    rows = []
    for x in base:
        y = 0.8 * x + 0.1
        label = f"x={x:.6g},y={y:.6g}"
        if which == "phi1":
            # polarized potential against the raw-kernel route
            value = abs(np.exp(N * geometry.two_phi_tilde(x, np.conj(y))))
            reference = abs(geometry.bergman_kernel(N, x, np.conj(y))) / density
        elif which == "psi":
            value = float(np.abs(geometry.psi_pointwise_norm(x, y, N)))
            half = 0.5 * np.real(
                geometry.two_phi_tilde(x, np.conj(x)) + geometry.two_phi_tilde(y, np.conj(y))
            )
            reference = float(np.exp(N * (np.real(geometry.two_phi_tilde(x, np.conj(y))) - half)))
        elif which == "bergman":
            # h-weighted diagonal: exactly the dimension-density constant
            weight = np.exp(-N * np.real(geometry.two_phi_tilde(x, np.conj(x))))
            value = float(np.real(geometry.bergman_kernel(N, x, np.conj(x))) * weight)
            reference = density
        else:
            raise ValueError(f"unknown check {which!r}")
        rows.append((which, label, value, reference, abs(value - reference)))
    return rows


def _cmd_geometry(args) -> tuple:
    from . import geometry as geo

    if args.action != "check":
        raise ValueError(f"unknown geometry action {args.action!r}")
    geometry = _geometry(args.geometry)
    if args.which == "mixed-log":
        chk = geo.mixed_log_derivative_check()
        reference = (1.0 - math.log(2.0)) / (2.0 * math.log(2.0) ** 2)
        rows = [("mixed-log", "t=1", chk.remark_value, reference, abs(chk.remark_value - reference))]
    else:
        rows = _geometry_rows(geometry, args.which)
    worst = max(r[4] / max(abs(r[3]), 1.0) for r in rows)
    passed = worst < 1e-10
    header = ("which", "point", "value", "reference", "error")
    return f"geometry check {args.which}", header, rows, {"worst_relative_error": worst}, passed


# ---------------------------------------------------------------------------
# phase expand


def _cmd_phase(args) -> tuple:
    from . import stationary_phase as sp
    from .series import PowerSeries

    if args.action != "expand":
        raise ValueError(f"unknown phase action {args.action!r}")
    if args.K < 0 or args.degree < 0:
        raise ValueError("need K >= 0 and degree >= 0")
    geometry = _geometry(args.geometry)
    order = max(2 * args.K + 2, args.degree)
    u, ubar = PowerSeries.variable(0, 2, order), PowerSeries.variable(1, 2, order)
    phase = -geometry.two_phi_tilde(u, ubar)
    rng = np.random.default_rng(args.seed)
    terms = {}
    for i in range(args.degree + 1):
        for j in range(args.degree + 1 - i):
            terms[(i, j)] = float(np.round(rng.uniform(-1.0, 1.0), 6))
    amplitude = PowerSeries.from_terms(terms, 2, order)
    wick = sp.wick_expand(phase, amplitude, args.K)
    morse = sp.morse_expand(phase, amplitude, args.K)
    rows = []
    worst = 0.0
    for k in range(args.K + 1):
        w, m = complex(wick.coeffs[k]), complex(morse.coeffs[k])
        err = abs(w - m)
        worst = max(worst, err)
        rows.append((k, w.real, w.imag, m.real, m.imag, err))
    passed = worst < 1e-8
    header = ("k", "wick_re", "wick_im", "morse_re", "morse_im", "error")
    return "phase expand", header, rows, {"max_route_disagreement": worst}, passed


# ---------------------------------------------------------------------------
# compose and bergman


def _coefficient_rows(symbol, K: int, reference=None):
    """Per-(k, node) coefficient values; residual = deviation from reference."""
    rows = []
    worst = 0.0
    for i, node in enumerate(symbol.nodes):
        for k in range(K + 1):
            val = complex(symbol.coeffs[i, k, 0, 0])
            if reference is None:
                res = 0.0
            else:
                res = abs(val - complex(reference.coeffs[i, k, 0, 0]))
            worst = max(worst, res)
            rows.append((k, f"{node.real:.6g}", val.real, val.imag, res))
    return rows, worst


def _cmd_compose(args) -> tuple:
    from . import covariant_calculus as cc

    if args.K < 0:
        raise ValueError("K must be >= 0")
    geometry = _geometry(args.geometry)
    f = cc.symbol_from_poly(geometry, [_symbol_terms(args.f, geometry)], order=args.order)
    g = cc.symbol_from_poly(geometry, [_symbol_terms(args.g, geometry)], order=args.order)
    product = cc.sharp_product(f, g, args.K)
    # truncation stability: recompute with a deeper internal bracket cap
    control = cc.sharp_product(f, g, args.K, pair_cap=args.K + 6)
    rows, worst = _coefficient_rows(product, args.K, reference=control)
    passed = worst < 1e-8
    header = ("k", "basepoint", "coeff_re", "coeff_im", "residual")
    return "compose", header, rows, {"max_residual": worst}, passed


def _cmd_bergman(args) -> tuple:
    from . import covariant_calculus as cc
    from . import quantization_spectral as qs

    if args.K < 0 or args.Nmax < 1:
        raise ValueError("need K >= 0 and Nmax >= 1")
    geometry = _geometry(args.geometry)
    symbol = cc.bergman_symbol(geometry, K=args.K)
    rows, _ = _coefficient_rows(symbol, args.K)
    # residual column: spread of each coefficient across basepoints
    spreads = {}
    for k in range(args.K + 1):
        vals = [complex(v) for v in symbol.coeffs[:, k, 0, 0]]
        mid = np.mean(vals)
        spreads[k] = max(abs(v - mid) for v in vals)
    rows = [(k, bp, re, im, spreads[k]) for (k, bp, re, im, _) in rows]
    matrix = qs.covariant_matrix(geometry, symbol, args.Nmax)
    defect = qs.operator_norm(np.asarray(matrix) - np.eye(matrix.dim))
    smallest = qs.invertibility_check(matrix)
    worst_spread = max(spreads.values())
    # the cutoff edge keeps the defect at e^{-cN}, so judge by the band; on
    # the sphere the exact matrix at the default cutoff is (1 - rho^{N+1}) I
    exact = 1.0 - qs.cutoff_rho(geometry) ** (args.Nmax + 1)
    passed = worst_spread < 1e-8 and 0.9 <= smallest / exact <= 1.1
    payload = {
        "identity_defect_at_Nmax": defect,
        "min_singular_at_Nmax": smallest,
        "max_coefficient_spread": worst_spread,
    }
    return "bergman", ("k", "basepoint", "coeff_re", "coeff_im", "residual"), rows, payload, passed


# ---------------------------------------------------------------------------
# bergman-check and decay sweeps


def _partial_slope(ns, errs):
    live = [(n, e) for n, e in zip(ns, errs) if e > 0.0]
    if len(live) < 2:
        return None
    xs = np.array([n for n, _ in live], dtype=float)
    ys = np.log([e for _, e in live])
    return float(np.polyfit(xs, ys, 1)[0])


def _cmd_bergman_check(args) -> tuple:
    from . import quantization_spectral as qs

    if args.Nmax < 8:
        raise ValueError("Nmax must be at least 8")
    geometry = _geometry(args.geometry)
    levels = list(range(8, args.Nmax + 1, 8))
    errors = [qs.bergman_kernel_error(geometry, N) for N in levels]
    rows = []
    for i, (N, err) in enumerate(zip(levels, errors)):
        rows.append((N, err, _partial_slope(levels[: i + 1], errors[: i + 1])))
    slope = _partial_slope(levels, errors)
    if not geometry.compact or slope is None:
        # the plane expansion is exact: its errors are roundoff, and a
        # slope fitted to them says nothing about decay
        passed = max(errors) < 1e-10
    else:
        passed = slope < 0.0
    if slope is None:
        slope = 0.0
    payload = {"slope": slope, "max_sup_error": max(errors)}
    return "bergman-check", ("N", "sup_error", "slope"), rows, payload, passed


def _cmd_decay(args) -> tuple:
    from . import quantization_spectral as qs

    geometry = _geometry(args.geometry)
    levels = _parse_n_list(args.N_list)
    terms = _symbol_terms(args.f, geometry)
    region = qs.parse_region(args.V)
    report = qs.decay_report(geometry, terms, args.E, region, levels, args.cutoff)
    rows = []
    for i, (N, ev, _target, mass) in enumerate(report.rows):
        partial = None
        if sum(row[3] > 0 for row in report.rows[: i + 1]) >= 4:
            partial = qs.decay_rate_fit(report.rows[: i + 1])[0]
        rows.append((N, ev, mass, partial))
    passed = report.fit_quality > 0.9
    payload = {"rate": report.rate, "fit_quality": report.fit_quality}
    return "decay", ("N", "lambda", "mass", "c_fit_partial"), rows, payload, passed


# ---------------------------------------------------------------------------
# parser


def _common() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--out", default=".", help="output directory for CSV/JSON artifacts")
    parent.add_argument("--config", default=None, help="flat key = value config file")
    parent.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="toeplitz-forge", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    parent = _common()

    p = subs.add_parser("lemmas", parents=[parent], help="verify combinatorial bound families")
    p.add_argument("action", choices=["verify"])
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--m-max", type=int, default=16, dest="m_max")
    p.add_argument("--ell-max", type=int, default=40, dest="ell_max")
    p.set_defaults(func=_cmd_lemmas, parser=p)

    p = subs.add_parser("symbols", parents=[parent], help="symbol-class norm/product/inverse/sum checks")
    p.add_argument("action", choices=["norm", "product", "inverse", "sum"])
    p.add_argument("--domain", default="interval:-0.5,0.5")
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--R", type=float, default=2.0)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--K", type=int, default=6)
    p.add_argument("--N", type=int, default=40)
    p.add_argument("--coeffs", default="factorial")
    p.set_defaults(func=_cmd_symbols, parser=p)

    p = subs.add_parser("geometry", parents=[parent], help="closed-form geometry cross-checks")
    p.add_argument("action", choices=["check"])
    p.add_argument("--geometry", default="sphere")
    p.add_argument("--which", choices=["phi1", "psi", "bergman", "mixed-log"], default="bergman")
    p.set_defaults(func=_cmd_geometry, parser=p)

    p = subs.add_parser("phase", parents=[parent], help="stationary-phase route comparison")
    p.add_argument("action", choices=["expand"])
    p.add_argument("--geometry", default="plane")
    p.add_argument("--K", type=int, default=3)
    p.add_argument("--degree", type=int, default=3)
    p.set_defaults(func=_cmd_phase, parser=p)

    p = subs.add_parser("compose", parents=[parent], help="sharp product with stability residuals")
    p.add_argument("--geometry", default="sphere")
    p.add_argument("--K", type=int, default=2)
    p.add_argument("--f", default="x3")
    p.add_argument("--g", default="poly:0,0,0=1.0;0,0,1=-0.333")
    p.add_argument("--order", type=int, default=8)
    p.set_defaults(func=_cmd_compose, parser=p)

    p = subs.add_parser("bergman", parents=[parent], help="projector symbol coefficients")
    p.add_argument("--geometry", default="sphere")
    p.add_argument("--K", type=int, default=3)
    p.add_argument("--Nmax", type=int, default=32)
    p.set_defaults(func=_cmd_bergman, parser=p)

    p = subs.add_parser("bergman-check", parents=[parent], help="kernel-expansion error sweep")
    p.add_argument("--geometry", default="sphere")
    p.add_argument("--Nmax", type=int, default=64)
    p.set_defaults(func=_cmd_bergman_check, parser=p)

    p = subs.add_parser("decay", parents=[parent], help="eigenvector forbidden-region decay sweep")
    p.add_argument("--geometry", default="sphere")
    p.add_argument("--f", default="x3")
    p.add_argument("--E", type=float, default=0.0)
    p.add_argument("--V", default="x3 >= 1/2")
    p.add_argument("--N-list", default="8,12,16,20,24,28,32", dest="N_list")
    p.add_argument("--cutoff", type=int, default=None)
    p.set_defaults(func=_cmd_decay, parser=p)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and write its artifacts.

    Each ``_cmd_*`` returns ``(label, header, rows, payload, passed)``; the
    JSON settings are every option of the subcommand's own parser.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        _apply_config(args.parser, args.config)
        args = parser.parse_args(argv)  # explicit flags beat config values
    try:
        label, header, rows, payload, passed = args.func(args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    settings = {a.dest: getattr(args, a.dest) for a in args.parser._actions
                if a.dest not in ("help", "config")}
    _write_csv(args.out, args.command, header, rows)
    _write_summary(args.out, args.command, label, settings, payload, passed)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
