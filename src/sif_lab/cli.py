"""Command-line interface: sif-lab <subcommand> [flags].

Subcommands cover the analytic layers (eigen, mode, gamma, identity-check),
the discrete layers (solve, extract) and the experiment drivers (sweep,
manufactured).  Tabular output is CSV on stdout unless --out is given;
every subcommand writes through harness.emit.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys

import numpy as np

from . import SifLabError
from .angular import check_ij_identity, gamma_lame, gamma_stokes
from .extraction import ProblemData, extract_sifs_penalized, extract_sifs_stokes
from .fem import P2Space, dirichlet_values, load_vector, norms
from .harness import (ConfigError, build_problem, emit, load_config, run_eps_sweep,
                      run_manufactured)
from .modes import CornerFrame, Polar, make_mode
from .spectral import MaterialParams, exponent_table

log = logging.getLogger(__name__)

# The package's named errors, and bad input values (ValueError), end a run
# with one line on stderr.
_RUN_ERRORS = (SifLabError, ValueError)


def _eps_grid(text: str) -> list[float]:
    """--eps-grid lo,hi,n: n >= 1 values from lo to hi, geometrically spaced;
    anything else is a usage error."""
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo,hi,n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected two numbers and a count lo,hi,n, got {text!r}") from None
    if not all(0.0 < e < math.inf for e in (lo, hi)):
        raise argparse.ArgumentTypeError(f"lo and hi must be positive and finite, got {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"n must be at least 1, got {n}")
    return [float(e) for e in np.geomspace(lo, hi, n)]


def _point(text: str) -> tuple[float, float]:
    """--at r,theta: two finite numbers; anything else is a usage error.  A
    radius that is not positive is the library's NonpositiveRadius."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected r,theta, got {text!r}")
    try:
        r, theta = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two numbers r,theta, got {text!r}") from None
    if not (math.isfinite(r) and math.isfinite(theta)):
        raise argparse.ArgumentTypeError(f"r and theta must be finite, got {text!r}")
    return r, theta


def _eps_values(args) -> list[float]:
    return args.eps_grid or [args.eps]


def cmd_eigen(args) -> int:
    material = MaterialParams(args.mu, args.eps)
    table = exponent_table(args.family, args.omega, material.C)
    row = {"family": table.family, "omega": table.omega, "C": table.C,
           **dict(zip(("e1", "e2", "e3"), table.exponents)),
           "modes": table.mode_count,
           **dict(zip(("res1", "res2", "res3"), table.residuals))}
    emit([row], format="csv", path=args.out)
    return 0


def cmd_mode(args) -> int:
    material = MaterialParams(args.mu, args.eps)
    frame = CornerFrame(0.0, args.omega)
    mode = make_mode(args.family, args.kind, args.index, frame, material)
    r, theta = args.at
    at = Polar(r, theta)
    v = mode.eval(at)
    G = mode.eval_grad(at)
    if args.family == "lame":
        extra = {"div_scaled": float(mode.eval_div_scaled(at))}
    else:
        extra = {"pressure": float(mode.eval_pressure(at))}
    row = {"family": mode.family, "kind": mode.kind, "index": mode.index,
           "a": mode.a, "r": r, "theta": theta, "vx": v[0], "vy": v[1],
           "g11": G[0, 0], "g12": G[0, 1], "g21": G[1, 0], "g22": G[1, 1], **extra}
    emit([row], format="csv", path=args.out)
    return 0


def cmd_gamma(args) -> int:
    frame = CornerFrame(0.0, args.omega)
    if args.family == "stokes":
        runs = [("", gamma_stokes(args.index, frame))]
    else:
        runs = [(eps, gamma_lame(args.index, MaterialParams(args.mu, eps), frame))
                for eps in _eps_values(args)]
    rows = [{"family": args.family, "index": args.index, "eps": eps,
             "gamma": g.gamma, "order": g.order, "quad_error": g.quad_error}
            for eps, g in runs]
    emit(rows, format="csv", path=args.out)
    return 0


def cmd_identity_check(args) -> int:
    frame = CornerFrame(0.0, args.omega)
    keys = ("index", "eps", "max_deviation", "scale", "sup_kappa")
    rows = []
    for eps in _eps_values(args):
        rep = check_ij_identity(args.index, MaterialParams(args.mu, eps), frame)
        rows.append({k: rep[k] for k in keys})
    emit(rows, format="csv", path=args.out)
    return 0


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    _, mesh, mu, f, g, zeta = build_problem(cfg, ["mu"])    # eps is --eps
    material = MaterialParams(mu, args.eps)
    space = P2Space(mesh)
    field = space.solve(material, load_vector(space, f, zeta),
                        dirichlet_values(space, g.traces))
    nm = norms(field)
    for k, v in nm.items():
        print(f"{k} = {v:.12e}")
    print(f"solver_residual = {field.residual:.3e}")
    print(f"solver_iterations = {field.iterations}")
    if material.eps == 0.0:
        print(f"flux_defect = {field.flux_defect:.12e}")
    coords = space.dof_coords
    Np = mesh.n_nodes
    rows = [{"x": coords[i, 0], "y": coords[i, 1], "ux": field.ux[i],
             "uy": field.uy[i], "p": field.p[i] if i < Np else ""}
            for i in range(space.n_scalar)]
    emit(rows, format="csv", path=args.out)
    return 0


def cmd_extract(args) -> int:
    cfg = load_config(args.config)
    polygon, mesh, mu, f, g, zeta = build_problem(cfg, ["mu"])    # eps is --eps
    # The Stokes family sets eps = 0 itself.
    data = ProblemData(polygon=polygon, mesh=mesh, material=MaterialParams(mu, args.eps),
                       g=g, f=f, zeta=zeta)
    extract = {"penalized": extract_sifs_penalized, "stokes": extract_sifs_stokes}
    rep = extract[args.family](data)
    payload = {"schema": "sif-lab/1", "family": rep.family, "eps": rep.eps,
               "gamma1": rep.gamma1, "gamma2": rep.gamma2,
               "C1": rep.C1, "C2": rep.C2, "Cstar": rep.Cstar,
               "c1": rep.c1, "c2": rep.c2, "terms": rep.terms,
               "mesh_id": rep.mesh_id}
    emit(payload, format="json", path=args.out)
    summary = ("family", "eps", "gamma1", "gamma2", "C1", "C2", "Cstar", "c1", "c2")
    emit([{k: payload[k] for k in summary}], format="csv")
    return 0


def cmd_sweep(args) -> int:
    emit(run_eps_sweep(load_config(args.config)), format=args.format, path=args.out)
    return 0


def cmd_manufactured(args) -> int:
    emit(run_manufactured(load_config(args.config)), format=args.format, path=args.out)
    return 0


def _add_common(p, config=False):
    p.add_argument("--out", default=None, help="output path (default stdout)")
    if config:
        p.add_argument("--config", required=True, help="INI config file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sif-lab",
                                 description="Corner singularity toolkit")
    ap.add_argument("-v", "--verbose", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigen", help="corner exponents of one family")
    p.add_argument("--family", choices=("lame", "stokes"), required=True)
    p.add_argument("--omega", type=float, required=True, help="opening angle (rad)")
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.0)
    _add_common(p)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("mode", help="evaluate one singular/dual mode")
    p.add_argument("--family", choices=("lame", "stokes"), required=True)
    p.add_argument("--kind", choices=("primal", "dual"), default="primal")
    p.add_argument("--index", type=int, default=1)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--at", type=_point, required=True, metavar="r,theta")
    _add_common(p)
    p.set_defaults(func=cmd_mode)

    p = sub.add_parser("gamma", help="angular normalizer")
    p.add_argument("--family", choices=("lame", "stokes"), required=True)
    p.add_argument("--index", type=int, default=1)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--eps-grid", type=_eps_grid, default=None, metavar="lo,hi,n")
    _add_common(p)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("identity-check",
                       help="raw vs closed-form angular integrand")
    p.add_argument("--index", type=int, default=1)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--eps-grid", type=_eps_grid, default=None, metavar="lo,hi,n")
    _add_common(p)
    p.set_defaults(func=cmd_identity_check)

    p = sub.add_parser("solve", help="mixed FEM solve from a config")
    p.add_argument("--eps", type=float, required=True,
                   help="penalty parameter (0 for the Stokes limit)")
    _add_common(p, config=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("extract", help="coefficient extraction from a config")
    p.add_argument("--family", choices=("penalized", "stokes"), required=True)
    p.add_argument("--eps", type=float, default=1e-3)
    _add_common(p, config=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("sweep", help="eps sweep against the Stokes reference")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p, config=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("manufactured", help="manufactured recovery study")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    _add_common(p, config=True)
    p.set_defaults(func=cmd_manufactured)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _RUN_ERRORS as exc:
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
