"""Command line front end: parse coefficient files, run one experiment, emit artifacts.

Artifacts are flat text: CSV tables with '#' metadata lines, JSON for the
obstruction report, key = value text for scalar reports.  Identical config
and inputs produce byte-identical output.
"""

import argparse
import cmath
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .families import _read_entries, load_family
from .normal_form import full_normalize
from .obstruction import divergence_witness, select_resonant_n
from .series import Jet, MapJet, _check_order
from .surface import lambda_from_gamma, surface_curves
from .twist import (
    DomainError,
    HypothesisViolation,
    SolverError,
    TwistParams,
    compute_constants,
    majorant_sequence,
    periodic_curve,
)


def _g17(x: float) -> str:
    return f"{float(x):.17g}"


def _config(args: argparse.Namespace) -> dict:
    """The run's arguments by name, as every artifact records them."""
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


def _meta(args: argparse.Namespace, **tolerances) -> list[str]:
    lines = [f"# revtwist {__version__}"]
    lines += [f"# {key} = {value}" for key, value in _config(args).items()]
    lines += [f"# {key} = {tolerances[key]}" for key in sorted(tolerances)]
    return lines


def load_map(path: str | Path, order: int) -> MapJet:
    """Read a map jet from the text format: one 'x|y i j re im' line per entry."""
    order = _check_order(order)

    def inside(_tag, i, j):
        if i < 0 or j < 0 or i + j > order:
            raise ValueError(f"degree ({i},{j}) outside order {order}")

    entries = _read_entries(path, ("x", "y"), inside)
    x, y = ({(i, j): v for (t, i, j), v in entries.items() if t == c} for c in "xy")
    return MapJet(Jet.from_entries(x, order), Jet.from_entries(y, order))


def _twist_from_args(args: argparse.Namespace) -> TwistParams:
    alpha = args.alpha
    if getattr(args, "gamma", None) is not None:
        # The linear rotation of the pair attached to a hyperbolic-case
        # surface is the unimodular root for that gamma.
        alpha = cmath.phase(lambda_from_gamma(args.gamma).lam)
    return TwistParams(alpha=alpha, s=args.s)


def cmd_normalize(args: argparse.Namespace) -> tuple[list[str], int]:
    # A map file does not record the order it was truncated at, and
    # reading it at a higher one zero-fills the degrees it never gave.
    if args.order is None:
        raise ValueError("normalize needs --order, the truncation order of the map file")
    order = args.order
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
    return lines, 0


def _curve_artifact(args: argparse.Namespace, crv, note: str | None = None,
                    **tolerances) -> tuple[list[str], int]:
    """The CSV of a sampled curve; a `real_intersections` note, when given,
    goes among the # lines and into a last column of every row."""
    lines = _meta(args, **tolerances)
    lines.append(f"# zeta0 = {_g17(crv.zeta0)}")
    lines.append(f"# diag.branch_steps = {crv.steps}")
    if crv.reality_defect is not None:
        lines.append(f"# reality_defect = {_g17(crv.reality_defect)}")
    header, tail = "w_re,w_im,zeta_re,zeta_im,residual", ""
    if note is not None:
        lines.append(f"# real_intersections = {note}")
        header, tail = header + ",real_intersections", f",{note}"
    lines.append(header)
    for wv, zv in crv.samples:
        row = (wv.real, wv.imag, zv.real, zv.imag, crv.residual)
        lines.append(",".join(map(_g17, row)) + tail)
    return lines, 0


def cmd_curve(args: argparse.Namespace) -> tuple[list[str], int]:
    fam = load_family(args.family, args.s, hermitian=args.hermitian)
    crv = periodic_curve(fam, _twist_from_args(args), args.n, args.j,
                         grid_size=args.grid, K=args.K)
    return _curve_artifact(args, crv, effective_K=max(crv.laurent))


def cmd_constants(args: argparse.Namespace) -> tuple[list[str], int]:
    dom = compute_constants(_twist_from_args(args), args.n)
    lines = _meta(args)
    for name in ("n", "d0", "c1", "c2", "epsilon0", "delta", "r0"):
        val = getattr(dom, name)
        lines.append(f"{name} = {val if name == 'n' else _g17(val)}")
    return lines, 0


def cmd_majorant(args: argparse.Namespace) -> tuple[list[str], int]:
    rep = majorant_sequence(_twist_from_args(args), args.n, K=args.K)
    lines = _meta(args, effective_K=len(rep.values) - 1)
    lines.append(f"# d0 = {_g17(rep.d0)}")
    lines.append(f"# satisfied = {rep.satisfied}")
    lines.append("k,f_k,bound")
    for k, (v, b) in enumerate(zip(rep.values, rep.bounds)):
        lines.append(f"{k},{_g17(v)},{_g17(b)}")
    return lines, 0 if rep.satisfied else 1


def cmd_obstruct(args: argparse.Namespace) -> tuple[list[str], int]:
    fam = load_family(args.family, args.s, hermitian=args.hermitian)
    tp = _twist_from_args(args)
    schedule = select_resonant_n(tp.alpha, args.delta, args.schedule_count,
                                 args.n_max)
    payload = {"meta": {"version": __version__, "config": _config(args)},
               **dataclasses.asdict(divergence_witness(fam, tp, schedule))}
    # The one rule json lacks: a complex value is written as [re, im].
    text = json.dumps(payload, indent=2, sort_keys=True, default=lambda z: [z.real, z.imag])
    return text.splitlines(), 0


def cmd_surface(args: argparse.Namespace) -> tuple[list[str], int]:
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
    return _curve_artifact(args, crv, note, effective_alpha=_g17(tp.alpha),
                           effective_grid=crv.grid_size)


def cmd_bishop(args: argparse.Namespace) -> tuple[list[str], int]:
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
    return lines, 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="revtwist",
        description="Reversible twist maps: normal forms, periodic curves, obstructions.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="-")
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", required=True)
    family.add_argument("--hermitian", action="store_true")
    twist = argparse.ArgumentParser(add_help=False)
    twist.add_argument("--alpha", type=float, required=True, help="rotation number")
    twist.add_argument("--s", type=int, required=True, help="degeneracy order")

    p = sub.add_parser("normalize", parents=[out], help="normal form of a map jet")
    p.add_argument("--map", required=True, help="map file, 'x|y i j re im' lines")
    p.add_argument("--tau", default=None, help="optional reversor map file")
    p.add_argument("--order", type=int, default=None,
                   help="truncation order of the map file (needed)")
    p.add_argument("--reality", default="standard",
                   choices=["standard", "surface"])
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("curve", parents=[twist, family, out],
                       help="periodic curve of a perturbed twist")
    p.add_argument("--n", type=int, required=True, help="period")
    p.add_argument("--j", type=int, required=True, help="branch index")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--K", type=int, default=None, help="Laurent band half-width")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("constants", parents=[twist, out],
                       help="validated solver constants for period n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("majorant", parents=[twist, out], help="majorant recursion against k/(4n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--K", type=int, default=None)
    p.set_defaults(func=cmd_majorant)

    p = sub.add_parser("obstruct", parents=[twist, family, out],
                       help="divergence witness over a resonant schedule")
    p.add_argument("--schedule-count", type=int, required=True)
    p.add_argument("--n-max", type=int, default=10**4)
    p.add_argument("--delta", type=float, default=0.3,
                   help="resonance window (-delta, 0)")
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("surface", parents=[family, out],
                       help="periodic curve of an involution pair")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--alpha", type=float, help="rotation number")
    grp.add_argument("--gamma", type=float, help="hyperbolic-case invariant, sets alpha")
    p.add_argument("--s", type=int, required=True, help="degeneracy order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--abar", default=None,
                   help="independent second family (default: conjugate of --family)")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("bishop", parents=[out], help="unimodular root and exceptionality for gamma")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--max-order", type=int, default=64)
    p.set_defaults(func=cmd_bishop)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Each subcommand returns its artifact and exit code; the one write
        # happens here, so a failed write exits 1 like any other OSError.
        lines, code = args.func(args)
        text = "\n".join(lines) + "\n"
        if args.out == "-":
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text)
        return code
    except (HypothesisViolation, DomainError) as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
