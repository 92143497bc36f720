"""Command-line driver for the verification suites and map evaluation.

Commands
--------
verify-equations   run every commutation instance for a range of levels
verify-boundary    run the double-boundary cancellation certificate
eval               evaluate a named map at a rational point
figure             export the planar boundary figure / cross chords (dim 2)
homology           print the point homology table

Exit codes: 0 all checks pass, 1 a mathematical violation was found,
2 usage or configuration error.  Identical flags (including --seed)
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from .chain import (
    CoefficientTuple,
    check_boundary_squared,
    check_equation,
    chain_of_term,
    equation_instances,
    identity_term,
)
from .comfort import PointMap, counterexample_map
from .geometry import (
    DEFAULT_DENOMINATOR,
    DEFAULT_SEED,
    BaryPoint,
    canonical_grid,
    format_point,
    parse_point,
    parse_rational,
    project_layer,
    vertex,
)
from .homology_point import homology_table
from .theta import THETA1_DIM_CAP, FaceMap, ThetaKey, face_insert, theta


class UsageError(ValueError):
    pass


def _parse_m(text: str) -> CoefficientTuple:
    try:
        return CoefficientTuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse coefficient tuple {text!r}: {exc}") from exc


def _read_config(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"config line without '=': {line!r}")
                key, _, val = line.partition("=")
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


_CONFIG_INT_KEYS = {"n", "n_max", "L", "grid_denominator", "seed"}


def _apply_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    config = _read_config(args.config)
    for key, raw in config.items():
        if not hasattr(args, key):
            raise UsageError(f"unknown config key {key!r}")
        if getattr(args, key) is not None:  # flags win over the config file
            continue
        try:
            setattr(args, key, int(raw) if key in _CONFIG_INT_KEYS else raw)
        except ValueError as exc:
            raise UsageError(f"config key {key!r}: {exc}") from exc


def _fill_defaults(args: argparse.Namespace, **defaults) -> None:
    for key, val in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, val)


def _write_or_print(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _grids(args, dims) -> Tuple[dict, List[List[BaryPoint]]]:
    """The grids' origin (denominator and seed) and the canonical grid per
    dimension, all built before any check runs, so a too small
    --grid-denominator is a usage error."""
    if args.grid_denominator < 1:
        raise UsageError(f"--grid-denominator {args.grid_denominator} must be at least 1")
    try:
        grids = [canonical_grid(dim, args.grid_denominator, args.seed) for dim in dims]
    except ValueError as exc:
        raise UsageError(f"--grid-denominator {args.grid_denominator}: {exc}") from exc
    return {"denominator": args.grid_denominator, "seed": args.seed}, grids


def _check_family(L: int) -> None:
    if L not in (0, 1):
        raise UsageError(f"the homeomorphism family exists for L in {{0,1}}, got {L}")


def _check_levels(args, L: int, theta_dim: int) -> None:
    """Validate --n/--n-max; ``theta_dim`` is the top Θ dimension the run needs."""
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    if args.n_max < args.n:
        raise UsageError(f"--n-max {args.n_max} is below --n {args.n}")
    if L == 1 and theta_dim > THETA1_DIM_CAP:
        raise UsageError(
            f"--n-max {args.n_max} needs Θ(1,{theta_dim},1); "
            f"the inductive family is built up to dimension {THETA1_DIM_CAP}"
        )


# ---------------------------------------------------------------------------
# Commands


def cmd_verify_equations(args) -> int:
    _apply_config(args)
    _fill_defaults(args, n=1, L=1, grid_denominator=DEFAULT_DENOMINATOR, seed=DEFAULT_SEED)
    _check_family(args.L)
    if args.n_max is None:
        args.n_max = args.n
    _check_levels(args, args.L, args.n_max)
    instances = []
    all_pass = True
    levels = range(args.n, args.n_max + 1)
    origin, grids = _grids(args, [n - 1 for n in levels])
    for n, grid in zip(levels, grids):
        for (j, p, i, k) in equation_instances(n, args.L):
            res = check_equation(n, j, p, i, k, grid, args.L, grid_meta=origin)
            instances.append(res)
            all_pass &= res.verdict
            print(
                f"equation n={n} j={j} p={p} i={i} k={k}: "
                f"{'pass' if res.verdict else 'FAIL'} ({res.points_checked} points)"
            )
    report = {
        "check": "equations",
        "parameters": {"n": args.n, "n_max": args.n_max, "L": args.L},
        "grid": origin,
        "verdict": "pass" if all_pass else "fail",
        "instances": [r.to_json() for r in instances],
    }
    if args.out:
        _write_or_print(json.dumps(report, sort_keys=True, indent=2), args.out)
    print(f"equations: {len(instances)} instances, verdict {'pass' if all_pass else 'FAIL'}")
    return 0 if all_pass else 1


def cmd_verify_boundary(args) -> int:
    _apply_config(args)
    _fill_defaults(args, n=2, L=None, m="1,1", grid_denominator=DEFAULT_DENOMINATOR, seed=DEFAULT_SEED)
    if args.n_max is None:
        args.n_max = args.n
    m = _parse_m(args.m)
    if args.L is not None and args.L != m.L:
        raise UsageError(f"--L {args.L} contradicts the coefficient tuple of length {len(m)}")
    _check_family(m.L)
    _check_levels(args, m.L, args.n_max - 1)
    runs = []
    all_pass = True
    dims = range(args.n, args.n_max + 1)
    origin, grids = _grids(args, [max(dim - 2, 0) for dim in dims])
    for dim, grid in zip(dims, grids):
        chain = chain_of_term(identity_term(dim))
        res = check_boundary_squared(chain, m, grid, grid_meta=origin)
        runs.append(res)
        all_pass &= res.verdict
        print(
            f"boundary-squared dim={dim} m={tuple(m)}: "
            f"{'pass' if res.verdict else 'FAIL'} "
            f"({res.summands_total} summands, {res.pairs_checked} pairs)"
        )
    report = {
        "check": "boundary-squared",
        "parameters": {"n": args.n, "n_max": args.n_max, "m": list(m)},
        "grid": origin,
        "verdict": "pass" if all_pass else "fail",
        "runs": [r.to_json() for r in runs],
    }
    if args.out:
        _write_or_print(json.dumps(report, sort_keys=True, indent=2), args.out)
    print(f"boundary-squared: {len(runs)} runs, verdict {'pass' if all_pass else 'FAIL'}")
    return 0 if all_pass else 1


def _resolve_map(map_id: str) -> Tuple[int, PointMap]:
    """The dimension and the per-point map named by ``map_id``."""
    head, _, params_text = map_id.partition(":")
    params = {}
    if params_text:
        for part in params_text.split(","):
            if "=" not in part:
                raise UsageError(f"bad map parameter {part!r} in {map_id!r}")
            key, _, val = part.partition("=")
            params[key.strip()] = val.strip()
    if head == "theta":
        try:
            homeo = theta(ThetaKey(int(params["L"]), int(params["n"]), int(params["i"])))
        except KeyError as exc:
            raise UsageError(f"theta map id needs L, n, i: {map_id!r}") from exc
        except ValueError as exc:
            raise UsageError(f"bad theta map id {map_id!r}: {exc}") from exc
    elif head == "pi_alpha":
        try:
            n = int(params["n"])
            alpha = parse_rational(params["alpha"])
        except (KeyError, ValueError) as exc:
            raise UsageError(f"pi_alpha map id needs n and alpha: {map_id!r}") from exc
        if n < 0 or not 0 <= alpha <= Fraction(1, n + 1):
            raise UsageError(f"pi_alpha level {alpha} outside [0, 1/{n + 1}]")
        return n, lambda x: project_layer(x, alpha)
    elif head == "counterexample":
        homeo = counterexample_map()
    else:
        raise UsageError(f"unknown map id {map_id!r}")
    return homeo.dim, homeo


def cmd_eval(args) -> int:
    _apply_config(args)
    if args.format not in (None, "csv"):
        raise UsageError(f"eval format must be csv, got {args.format!r}")
    dim, fn = _resolve_map(args.map)
    points = []
    for raw in args.point:
        try:
            points.append(parse_point(raw))
        except ValueError as exc:
            raise UsageError(f"cannot parse point {raw!r}: {exc}") from exc
    values = []
    for point in points:
        if point.dim != dim:
            print(
                f"error: map expects dimension {dim}, point has dimension {point.dim}",
                file=sys.stderr,
            )
            return 1
        try:
            values.append(fn(point))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.format == "csv" or len(points) > 1:
        lines = ["input,output"]
        lines += [f'"{format_point(x)}","{format_point(y)}"' for x, y in zip(points, values)]
        _write_or_print("\n".join(lines) + "\n", args.out)
    else:
        _write_or_print(format_point(values[0]) + "\n", args.out)
    return 0


_SVG_CORNERS = ((Fraction(40), Fraction(460)), (Fraction(560), Fraction(460)), (Fraction(300), Fraction(40)))


def _planar(x: BaryPoint):
    px = sum(c * e[0] for c, e in zip(x, _SVG_CORNERS))
    py = sum(c * e[1] for c, e in zip(x, _SVG_CORNERS))
    return float(px), float(py)


def _figure_segments(m: Optional[CoefficientTuple], alpha: Optional[Fraction]):
    segments = []
    if m is not None:
        ends = [BaryPoint([1, 0]), BaryPoint([0, 1])]
        for j in range(3):
            sign = -1 if j % 2 else 1
            for i in range(m.L + 1):
                fm = FaceMap(m.L, 2, i, j)
                a, b = (face_insert(fm, e) for e in ends)
                segments.append((f"{sign * m[i]:+d}", a, b))
    if alpha is not None:
        rest = 1 - alpha
        for j in range(3):
            lo = [Fraction(0), rest]
            hi = [rest, Fraction(0)]
            lo.insert(j, alpha)
            hi.insert(j, alpha)
            segments.append((f"cross@{alpha}", BaryPoint(lo), BaryPoint(hi)))
    return segments


def _figure_csv(segments) -> str:
    # Point tuples contain commas, so they travel as quoted CSV fields.
    lines = ["label,start,end"]
    for label, a, b in segments:
        lines.append(f'{label},"{format_point(a)}","{format_point(b)}"')
    return "\n".join(lines) + "\n"


def _figure_svg(segments) -> str:
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="600" height="500" '
        'viewBox="0 0 600 500">',
        '  <style>text{font:14px sans-serif}</style>',
    ]
    corners = [_planar(vertex(2, j)) for j in range(3)]
    outline = " ".join(f"{x:.2f},{y:.2f}" for x, y in corners)
    parts.append(f'  <polygon points="{outline}" fill="none" stroke="black"/>')
    for label, a, b in segments:
        (x1, y1), (x2, y2) = _planar(a), _planar(b)
        parts.append(
            f'  <line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            'stroke="crimson" stroke-width="1.5"/>'
        )
        mx, my = (x1 + x2) / 2, (y1 + y2) / 2
        parts.append(f'  <text x="{mx:.2f}" y="{my - 4:.2f}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_figure(args) -> int:
    _apply_config(args)
    _fill_defaults(args, format="csv")
    if args.n is not None and args.n != 2:
        raise UsageError("figure export is planar and needs dimension 2")
    m = _parse_m(args.m) if args.m else None
    alpha = None
    if args.alpha:
        try:
            alpha = parse_rational(args.alpha)
        except ValueError as exc:
            raise UsageError(f"cannot parse cross level {args.alpha!r}: {exc}") from exc
        if not 0 <= alpha <= 1:
            raise UsageError(f"cross level {alpha} outside [0,1]")
    if m is None and alpha is None:
        raise UsageError("nothing to draw: pass --m and/or --alpha")
    segments = _figure_segments(m, alpha)
    if args.format == "csv":
        _write_or_print(_figure_csv(segments), args.out)
    elif args.format == "svg":
        _write_or_print(_figure_svg(segments), args.out)
    else:
        raise UsageError(f"figure format must be csv or svg, got {args.format!r}")
    return 0


def cmd_homology(args) -> int:
    _apply_config(args)
    _fill_defaults(args, m="1", n_max=8)
    m = _parse_m(args.m)
    _check_family(m.L)
    if args.n_max < 0:
        raise UsageError("--n-max must be nonnegative")
    rows = homology_table(m, args.n_max)
    text = "\n".join(f"{n}, {bnd}, {hn}" for n, bnd, hn in rows) + "\n"
    _write_or_print(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_common(sub, *flags):
    if "n" in flags:
        sub.add_argument("--n", type=int, default=None, help="first (or only) level / dimension")
    if "n_max" in flags:
        sub.add_argument("--n-max", dest="n_max", type=int, default=None, help="last level / dimension")
    if "L" in flags:
        sub.add_argument("--L", type=int, default=None, help="number of parallel faces minus one")
    if "m" in flags:
        sub.add_argument("--m", default=None, help='coefficient tuple, e.g. "9,4"')
    if "grid" in flags:
        sub.add_argument("--grid-denominator", dest="grid_denominator", type=int, default=None)
        sub.add_argument("--seed", type=int, default=None)
    if "format" in flags:
        sub.add_argument("--format", default=None, help="csv (default) or svg")
    sub.add_argument("--out", default=None, help="write the report/figure to this path")
    sub.add_argument("--config", default=None, help="key=value file mirroring the flags; flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplex-boundary",
        description="Exact verification of the generalized simplicial boundary operator.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify-equations", help="run the commutation identity suite")
    _add_common(p, "n", "n_max", "L", "grid")
    p.set_defaults(func=cmd_verify_equations)

    p = subs.add_parser("verify-boundary", help="run the double-boundary cancellation certificate")
    p.description = "--n/--n-max give the dimension of the identity chain the operator is squared on."
    _add_common(p, "n", "n_max", "L", "m", "grid")
    p.set_defaults(func=cmd_verify_boundary)

    p = subs.add_parser("eval", help="evaluate a named map at one or more points")
    p.add_argument("--map", required=True, help='map id, e.g. "theta:L=1,n=2,i=1" or "pi_alpha:n=2,alpha=1/6"')
    p.add_argument(
        "--point", required=True, action="append",
        help='rational tuple, e.g. "[1/4,3/4]"; repeat for a CSV transcript',
    )
    p.add_argument("--format", default=None, help="csv forces transcript output")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("figure", help="export the planar boundary figure (dimension 2)")
    p.add_argument("--alpha", default=None, help="also draw the three chords of this cross level")
    _add_common(p, "n", "m", "format")
    p.set_defaults(func=cmd_figure)

    p = subs.add_parser("homology", help="print the point homology table")
    _add_common(p, "n_max", "m")
    p.set_defaults(func=cmd_homology)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
