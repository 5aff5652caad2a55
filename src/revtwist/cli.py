"""Command line front end: parse coefficient files, run one experiment, emit artifacts.

Artifacts are flat text: CSV tables with '#' metadata lines, JSON for the
obstruction report, key = value text for scalar reports.  Identical config
and inputs produce byte-identical output.
"""

import argparse
import cmath
import json
import math
import sys
from pathlib import Path

from . import __version__
from .families import load_family
from .normal_form import full_normalize
from .obstruction import divergence_witness, select_resonant_n
from .series import DEFAULT_ORDER, Jet, MapJet, _check_order
from .surface import lambda_from_gamma, surface_curves
from .twist import (
    DomainError,
    HypothesisViolation,
    SolverError,
    TwistParams,
    compute_constants,
    curve_band,
    majorant_sequence,
    periodic_curve,
)


def _g17(x: float) -> str:
    return f"{float(x):.17g}"


def _meta(args: argparse.Namespace, **tolerances) -> list[str]:
    skip = {"func"}
    lines = [f"# revtwist {__version__}"]
    for key in sorted(vars(args)):
        if key in skip:
            continue
        lines.append(f"# {key} = {getattr(args, key)}")
    for key in sorted(tolerances):
        lines.append(f"# {key} = {tolerances[key]}")
    return lines


def _emit(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def load_map(path: str | Path, order: int) -> MapJet:
    """Read a map jet from the text format: one 'x|y i j re im' line per entry."""
    order = _check_order(order)
    entries = {"x": {}, "y": {}}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 5 or parts[0] not in ("x", "y"):
            raise ValueError(f"line {lineno}: expected 'x|y i j re im', got {line!r}")
        try:
            i, j = int(parts[1]), int(parts[2])
            v = complex(float(parts[3]), float(parts[4]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        if not cmath.isfinite(v):
            raise ValueError(f"line {lineno}: entry {v} is not finite")
        if not 0 <= i <= order or not 0 <= j <= order or i + j > order:
            raise ValueError(f"line {lineno}: degree ({i},{j}) outside order {order}")
        component = entries[parts[0]]
        if (i, j) in component:
            raise ValueError(f"line {lineno}: duplicate entry for {parts[0]} ({i},{j})")
        component[i, j] = v
    return MapJet(Jet.from_entries(entries["x"], order), Jet.from_entries(entries["y"], order))


def _twist_from_args(args: argparse.Namespace) -> TwistParams:
    alpha = args.alpha
    if getattr(args, "gamma", None) is not None:
        # The linear rotation of the pair attached to a hyperbolic-case
        # surface is the unimodular root for that gamma.
        alpha = cmath.phase(lambda_from_gamma(args.gamma).lam)
    return TwistParams(alpha=alpha, s=args.s)


def cmd_normalize(args: argparse.Namespace) -> int:
    order = args.order if args.order is not None else DEFAULT_ORDER
    phi = load_map(args.map, order)
    tau = load_map(args.tau, order) if args.tau else None
    res = full_normalize(phi, tau=tau, order=order, reality=args.reality)
    lines = _meta(args, effective_order=order)
    lines += [
        f"# lambda_re = {_g17(res.lam.real)}",
        f"# lambda_im = {_g17(res.lam.imag)}",
        f"# eps = {res.eps}",
        f"# s = {res.s}",
        f"# residual = {_g17(res.residual)}",
        "component,i,j,re,im",
    ]
    for name, jet in (("x", res.Phi.x), ("y", res.Phi.y)):
        for i in range(order + 1):
            for j in range(order + 1 - i):
                v = jet.coeffs[i, j]
                if v != 0:
                    lines.append(f"{name},{i},{j},{_g17(v.real)},{_g17(v.imag)}")
    _emit(args.out, lines)
    return 0


def _curve_rows(crv) -> list[str]:
    rows = ["w_re,w_im,zeta_re,zeta_im,residual"]
    for wv, zv in crv.samples:
        rows.append(",".join([
            _g17(wv.real), _g17(wv.imag),
            _g17(zv.real), _g17(zv.imag),
            _g17(crv.residual),
        ]))
    return rows


def cmd_curve(args: argparse.Namespace) -> int:
    fam = load_family(args.family, args.s, hermitian=args.hermitian)
    tp = _twist_from_args(args)
    K = args.K if args.K is not None else curve_band(args.n, args.grid)
    crv = periodic_curve(fam, tp, args.n, args.j, grid_size=args.grid, K=K)
    lines = _meta(args, effective_K=K)
    lines.append(f"# zeta0 = {_g17(crv.zeta0)}")
    if crv.reality_defect is not None:
        lines.append(f"# reality_defect = {_g17(crv.reality_defect)}")
    lines += _curve_rows(crv)
    _emit(args.out, lines)
    return 0


def cmd_constants(args: argparse.Namespace) -> int:
    tp = _twist_from_args(args)
    dom = compute_constants(tp, args.n)
    lines = _meta(args)
    for name in ("n", "d0", "c1", "c2", "epsilon0", "delta", "r0"):
        val = getattr(dom, name)
        lines.append(f"{name} = {val if name == 'n' else _g17(val)}")
    _emit(args.out, lines)
    return 0


def cmd_majorant(args: argparse.Namespace) -> int:
    tp = _twist_from_args(args)
    rep = majorant_sequence(tp, args.n, K=args.K)
    lines = _meta(args)
    lines.append(f"# d0 = {_g17(rep.d0)}")
    lines.append(f"# satisfied = {rep.satisfied}")
    lines.append("k,f_k,bound")
    for k, (v, b) in enumerate(zip(rep.values, rep.bounds)):
        lines.append(f"{k},{_g17(v)},{_g17(b)}")
    _emit(args.out, lines)
    return 0 if rep.satisfied else 1


def cmd_obstruct(args: argparse.Namespace) -> int:
    fam = load_family(args.family, args.s, hermitian=args.hermitian)
    tp = _twist_from_args(args)
    schedule = select_resonant_n(tp.alpha, args.delta, args.schedule_count,
                                 args.n_max)
    report = divergence_witness(fam, tp, schedule)
    payload = {
        "meta": {
            "version": __version__,
            "config": {k: v for k, v in sorted(vars(args).items())
                       if k != "func"},
        },
    }
    payload.update(report.as_dict())
    _emit(args.out, json.dumps(payload, indent=2, sort_keys=True).splitlines())
    return 0


def cmd_surface(args: argparse.Namespace) -> int:
    fam = load_family(args.family, args.s, hermitian=args.hermitian)
    abar = None
    if args.abar is not None:
        abar = load_family(args.abar, args.s, hermitian=args.hermitian)
    tp = _twist_from_args(args)
    crv = surface_curves(fam, tp, args.n, args.j, grid_size=args.grid, abar=abar)
    hits = crv.real_intersections
    if hits == "continuum":
        note = "continuum"
    elif not hits:
        note = "none"
    else:
        note = ";".join(f"{w.real:.9g}{w.imag:+.9g}j" for w in hits)
    lines = _meta(args)
    lines.append(f"# zeta0 = {_g17(crv.zeta0)}")
    lines.append(f"# real_intersections = {note}")
    rows = _curve_rows(crv)
    lines.append(rows[0] + ",real_intersections")
    lines += [r + f",{note}" for r in rows[1:]]
    _emit(args.out, lines)
    return 0


def cmd_bishop(args: argparse.Namespace) -> int:
    bd = lambda_from_gamma(args.gamma, max_order=args.max_order)
    lam = bd.lam
    lines = _meta(args)
    lines += [
        f"lambda_re = {_g17(lam.real)}",
        f"lambda_im = {_g17(lam.imag)}",
        f"exceptional = {bd.exceptional}",
        f"root_order = {bd.root_order}",
        f"scan_bound = {bd.scan_bound}",
        # The certificate: residuals of the defining identities, checkable
        # without rerunning the tool.
        f"char_residual = {_g17(abs(args.gamma * lam * lam - lam + args.gamma))}",
        f"modulus_residual = {_g17(abs(abs(lam) - 1.0))}",
    ]
    if bd.exceptional:
        lines.append(f"root_residual = {_g17(abs(lam ** bd.root_order - 1.0))}")
    _emit(args.out, lines)
    return 0


def _add_twist_flags(p: argparse.ArgumentParser, gamma: bool = False) -> None:
    if gamma:
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--alpha", type=float, help="rotation number")
        grp.add_argument("--gamma", type=float,
                         help="hyperbolic-case invariant, sets alpha")
    else:
        p.add_argument("--alpha", type=float, required=True,
                       help="rotation number")
    p.add_argument("--s", type=int, required=True, help="degeneracy order")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="revtwist",
        description="Reversible twist maps: normal forms, periodic curves, obstructions.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("normalize", help="normal form of a map jet")
    p.add_argument("--map", required=True, help="map file, 'x|y i j re im' lines")
    p.add_argument("--tau", default=None, help="optional reversor map file")
    p.add_argument("--order", type=int, default=None,
                   help="truncation order (default %d)" % DEFAULT_ORDER)
    p.add_argument("--reality", default="standard",
                   choices=["standard", "surface"])
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("curve", help="periodic curve of a perturbed twist")
    _add_twist_flags(p)
    p.add_argument("--n", type=int, required=True, help="period")
    p.add_argument("--j", type=int, required=True, help="branch index")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--K", type=int, default=None, help="Laurent band half-width")
    p.add_argument("--family", required=True)
    p.add_argument("--hermitian", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("constants", help="validated solver constants for period n")
    _add_twist_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("majorant", help="majorant recursion against k/(4n)")
    _add_twist_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_majorant)

    p = sub.add_parser("obstruct", help="divergence witness over a resonant schedule")
    _add_twist_flags(p)
    p.add_argument("--schedule-count", type=int, required=True)
    p.add_argument("--n-max", type=int, default=10**4)
    p.add_argument("--delta", type=float, default=0.3,
                   help="resonance window (-delta, 0)")
    p.add_argument("--family", required=True)
    p.add_argument("--hermitian", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("surface", help="periodic curve of an involution pair")
    _add_twist_flags(p, gamma=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--family", required=True)
    p.add_argument("--abar", default=None,
                   help="independent second family (default: conjugate of --family)")
    p.add_argument("--hermitian", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("bishop", help="unimodular root and exceptionality for gamma")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--max-order", type=int, default=64)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_bishop)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HypothesisViolation, DomainError) as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
