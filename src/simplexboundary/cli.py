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
import os
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from .chain import (
    CoefficientTuple,
    _face_summands,
    check_boundary_squared,
    check_equation,
    chain_of_term,
    identity_term,
)
from .comfort import PointMap, counterexample_map
from .geometry import (
    DEFAULT_DENOMINATOR,
    DEFAULT_SEED,
    BaryPoint,
    CenterProjection,
    canonical_grid,
    format_point,
    parse_point,
    parse_rational,
    project_layer,
    vertex,
)
from .homology_point import homology_table
from .theta import ThetaKey, UnsupportedL, check_family, face_insert, theta


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
                key = key.strip().replace("-", "_")
                if key in values:
                    raise UsageError(f"repeated config key {key!r}")
                values[key] = val.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def _settle_flags(args: argparse.Namespace, defaults: dict) -> None:
    """Give every optional flag of the command its value: the command line
    first, then the --config file, then ``defaults``.  A config key names
    an optional flag of the command and is parsed with that flag's type."""
    config = _read_config(args.config) if args.config else {}
    for key, raw in config.items():
        if key not in defaults:
            raise UsageError(f"unknown config key {key!r}")
        if getattr(args, key) is not None:  # flags win over the config file
            continue
        try:
            setattr(args, key, _FLAGS[key][0](raw))
        except ValueError as exc:
            raise UsageError(f"config key {key!r}: {exc}") from exc
    for key, default in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, default)


def _write_or_print(text: str, out: Optional[str]) -> None:
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc}") from exc
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _check_writable(out: Optional[str]) -> None:
    """Fail before any check runs when ``out`` cannot be opened for
    writing.  The probe appends nothing, so an existing report keeps its
    bytes if the run stops early, and a file the probe created is removed."""
    if out is None:
        return
    existed = os.path.exists(out)
    try:
        with open(out, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(out)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc


def _report(check: str, parameters: dict, origin: dict, key: str, results: list, out: Optional[str]) -> int:
    """Write the JSON report of a verify command to ``out`` (if given),
    print its summary line, and return the exit code: 0 when every result
    passes, else 1.  ``key`` names the list of results in the report."""
    all_pass = all(r.verdict for r in results)
    if out is not None:
        report = {"check": check, "parameters": parameters, "grid": origin,
                  "verdict": "pass" if all_pass else "fail", key: [r.to_json() for r in results]}
        _write_or_print(json.dumps(report, sort_keys=True, indent=2), out)
    print(f"{check}: {len(results)} {key}, verdict {'pass' if all_pass else 'FAIL'}")
    return 0 if all_pass else 1


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


def _check_levels(args, L: int, theta_dim: int) -> None:
    """Validate --n/--n-max, then ask ``check_family`` for every Θ up to
    ``theta_dim``, the top Θ dimension the run needs."""
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    if args.n_max < args.n:
        raise UsageError(f"--n-max {args.n_max} is below --n {args.n}")
    check_family(L, theta_dim)


# ---------------------------------------------------------------------------
# Commands


def cmd_verify_equations(args) -> int:
    if args.n_max is None:
        args.n_max = args.n
    _check_levels(args, args.L, args.n_max)
    instances = []
    levels = range(args.n, args.n_max + 1)
    origin, grids = _grids(args, [n - 1 for n in levels])
    _check_writable(args.out)
    for n, grid in zip(levels, grids):
        for res in check_equation(n, grid, args.L, grid_meta=origin):
            instances.append(res)
            print(
                f"equation n={n} j={res.j} p={res.p} i={res.i} k={res.k}: "
                f"{'pass' if res.verdict else 'FAIL'} ({res.points_checked} points)"
            )
    parameters = {"n": args.n, "n_max": args.n_max, "L": args.L}
    return _report("equations", parameters, origin, "instances", instances, args.out)


def cmd_verify_boundary(args) -> int:
    if args.n_max is None:
        args.n_max = args.n
    m = _parse_m(args.m)
    _check_levels(args, m.L, args.n_max - 1)
    runs = []
    dims = range(args.n, args.n_max + 1)
    origin, grids = _grids(args, [max(dim - 2, 0) for dim in dims])
    _check_writable(args.out)
    for dim, grid in zip(dims, grids):
        chain = chain_of_term(identity_term(dim))
        res = check_boundary_squared(chain, m, grid, grid_meta=origin)
        runs.append(res)
        print(
            f"boundary-squared dim={dim} m={tuple(m)}: "
            f"{'pass' if res.verdict else 'FAIL'} "
            f"({res.summands_total} summands, {res.pairs_checked} pairs)"
        )
    parameters = {"n": args.n, "n_max": args.n_max, "m": list(m)}
    return _report("boundary-squared", parameters, origin, "runs", runs, args.out)


#: The parameters each map id takes.
_MAP_PARAMS = {"theta": ("L", "n", "i"), "pi_alpha": ("n", "alpha"), "counterexample": ()}


def _resolve_map(map_id: str) -> Tuple[int, PointMap]:
    """The dimension and the per-point map named by ``map_id``."""
    head, _, params_text = map_id.partition(":")
    params = {}
    if params_text:
        for part in params_text.split(","):
            if "=" not in part:
                raise UsageError(f"bad map parameter {part!r} in {map_id!r}")
            key, _, val = part.partition("=")
            if key.strip() in params:
                raise UsageError(f"repeated map parameter {key.strip()!r} in {map_id!r}")
            params[key.strip()] = val.strip()
    if head not in _MAP_PARAMS:
        raise UsageError(f"unknown map id {map_id!r}")
    for key in params:
        if key not in _MAP_PARAMS[head]:
            raise UsageError(f"unknown map parameter {key!r} in {map_id!r}")
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
        except KeyError as exc:
            raise UsageError(f"pi_alpha map id needs n and alpha: {map_id!r}") from exc
        except ValueError as exc:
            raise UsageError(f"bad pi_alpha map id {map_id!r}: {exc}") from exc
        if n < 0:
            raise UsageError(f"pi_alpha dimension {n} must be nonnegative")
        if not 0 <= alpha <= Fraction(1, n + 1):
            raise UsageError(f"pi_alpha level {alpha} outside [0, 1/{n + 1}]")
        return n, lambda x: project_layer(x, alpha)
    else:
        homeo = counterexample_map()
    return homeo.dim, homeo


def cmd_eval(args) -> int:
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
            raise UsageError(f"map expects dimension {dim}, point has dimension {point.dim}")
        values.append(fn(point))
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
        # The summands themselves: boundary() sorts, drops zero weights and rejects an L with no Θ.
        ends = [BaryPoint([1, 0]), BaryPoint([0, 1])]
        for _, weight, term in _face_summands(identity_term(2), m):
            a, b = (face_insert(term.faces[0], e) for e in ends)
            segments.append((f"{weight:+d}", a, b))
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
    m = _parse_m(args.m)
    if args.n_max < 0:
        raise UsageError("--n-max must be nonnegative")
    rows = homology_table(m, args.n_max)
    text = "\n".join(f"{n}, {bnd}, {hn}" for n, bnd, hn in rows) + "\n"
    _write_or_print(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser


#: Every optional flag once: its type and help.
_FLAGS = {
    "n": (int, "first (or only) level / dimension"),
    "n_max": (int, "last level / dimension"),
    "L": (int, "number of parallel faces minus one"),
    "m": (str, 'coefficient tuple, e.g. "9,4"'),
    "grid_denominator": (int, "denominator of the grid points"),
    "seed": (int, "seed of the random grid points"),
    "alpha": (str, "also draw the three chords of this cross level"),
    "format": (str, "figure: csv (default) or svg; eval: csv forces transcript output"),
    "out": (str, "write the report/figure to this path"),
}

#: Every command once: its function, help, description, and its optional
#: flags in parser order with their defaults.  ``None`` leaves the value to
#: the command (``n_max`` falls back to ``n``).  Read-only: ``main`` may run
#: many times in one process.  ``_GRID`` holds the defaults that both verify
#: commands share.
_GRID = {"grid_denominator": DEFAULT_DENOMINATOR, "seed": DEFAULT_SEED, "out": None}
_COMMANDS = {
    "verify-equations": (cmd_verify_equations, "run the commutation identity suite", None,
                         {"n": 1, "n_max": None, "L": 1, **_GRID}),
    "verify-boundary": (cmd_verify_boundary, "run the double-boundary cancellation certificate",
                        "--n/--n-max give the dimension of the identity chain the operator is squared on.",
                        {"n": 2, "n_max": None, "m": "1,1", **_GRID}),
    "eval": (cmd_eval, "evaluate a named map at one or more points", None, {"format": None, "out": None}),
    "figure": (cmd_figure, "export the planar boundary figure (dimension 2)", None,
               {"alpha": None, "m": None, "format": "csv", "out": None}),
    "homology": (cmd_homology, "print the point homology table", None, {"n_max": 8, "m": "1", "out": None}),
}


class _Parser(argparse.ArgumentParser):
    """An argparse error raises ``UsageError``, for ``main`` to report."""

    def error(self, message):
        raise UsageError(message)


class _Once(argparse.Action):
    """Store a flag's value; a second occurrence is a usage error, named
    by the flag's full spelling even when an abbreviation matched it."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise UsageError(f"repeated flag {self.option_strings[0]}")
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="simplex-boundary",
        description="Exact verification of the generalized simplicial boundary operator.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, description, defaults) in _COMMANDS.items():
        p = subs.add_parser(name, help=help_text, description=description)
        if name == "eval":
            p.add_argument(
                "--map", action=_Once, required=True,
                help='map id, e.g. "theta:L=1,n=2,i=1" or "pi_alpha:n=2,alpha=1/6"',
            )
            p.add_argument(
                "--point", required=True, action="append",
                help='rational tuple, e.g. "[1/4,3/4]"; repeat for a CSV transcript',
            )
        for flag in defaults:
            kind, flag_help = _FLAGS[flag]
            p.add_argument("--" + flag.replace("_", "-"), action=_Once, dest=flag, type=kind, help=flag_help)
        p.add_argument("--config", action=_Once, help="key=value file setting optional flags; flags win")
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _, _, _, defaults = _COMMANDS[args.command]
        _settle_flags(args, defaults)
        return args.func(args)
    except (UsageError, UnsupportedL, CenterProjection) as exc:  # also a Θ not built, π_α at the center
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    # A map refused a valid point, or a factor or module disagrees with its cross-check.
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
