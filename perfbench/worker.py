"""One pass of a benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --out-dir DIR
                                [--trace] [--setup-only]

The package is imported from ``src/`` beside this directory, so the
pass measures the checkout it sits in.  A fresh interpreter per pass
means no cache of the program carries over between passes, as for a
user who runs the CLI once.

The pass prints one JSON object: set-up and work time, operations
attempted and failed, points checked or evaluated, the SHA-256 of the
report bytes, peak RSS and, for ``eval``, the latency of every call.
With ``--trace`` the package is wrapped by ``tracer`` right after its
import and the object also carries per-layer counts and self time;
without it, ``tracer`` is never imported.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import random
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Each workload's CLI commands; ``--seed`` is added to the seeded ones.
CLI_COMMANDS = {
    "equations": (("verify-equations", "--L", "1", "--n", "1", "--n-max", "3"),),
    "certificate": (
        ("verify-boundary", "--m", "9,4", "--n", "2", "--n-max", "4"),
        ("homology", "--m", "9,4", "--n-max", "8"),
    ),
    "classical": (
        ("verify-equations", "--L", "0", "--n", "1", "--n-max", "8"),
        ("verify-boundary", "--m", "1", "--n", "2", "--n-max", "8"),
    ),
}
SEEDED_COMMANDS = {"verify-equations", "verify-boundary"}
WORKLOADS = tuple(CLI_COMMANDS) + ("eval",)

EVAL_DIMS = range(1, 7)
EVAL_POINTS_PER_DIM = 128
EVAL_MAX_DENOMINATOR = 10**4


def eval_points(seed: int):
    """Distinct seeded points of each dimension, as text, interleaved by dimension.

    Interleaving spreads any drift of the machine's speed evenly over
    the dimensions.
    """
    rng = random.Random(seed * 1_000_003 + 17)
    per_dim = {}
    for n in EVAL_DIMS:
        seen, texts = set(), []
        while len(texts) < EVAL_POINTS_PER_DIM:
            d = rng.randint(n + 2, EVAL_MAX_DENOMINATOR)
            cuts = sorted(rng.randint(0, d) for _ in range(n))
            parts = [b - a for a, b in zip([0, *cuts], [*cuts, d])]
            key = tuple(Fraction(p, d) for p in parts)
            if key not in seen:
                seen.add(key)
                texts.append("[" + ",".join(f"{p}/{d}" for p in parts) + "]")
        per_dim[n] = texts
    return [(n, per_dim[n][k]) for k in range(EVAL_POINTS_PER_DIM) for n in EVAL_DIMS]


def output_error(x, y) -> str:
    """Why ``y`` cannot be the image of ``x`` under a Θ map, or ''.

    Θ maps send the simplex to itself, respect coordinate permutations
    and keep the order of coordinates; this checks each on the one pair.
    """
    if len(y) != len(x):
        return "dimension changed"
    if any(c < 0 for c in y) or sum(y) != 1:
        return "not a point of the simplex"
    for a in range(len(x)):
        for b in range(len(x)):
            if x[a] < x[b] and not y[a] <= y[b]:
                return f"order of slots {a},{b} not kept"
            if x[a] == x[b] and y[a] != y[b]:
                return f"equal slots {a},{b} separated"
    return ""


def setup(workload: str, trace: bool):
    """Import the package, build the CLI parser and, for eval, the Θ handles.

    Returns the time taken and, when ``trace`` is set, the tracer, which
    is installed right after the import so that it sees the Θ cache from
    its first entry.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from simplexboundary import cli

    if Path(cli.__file__).resolve().parent.parent != ROOT / "src":
        raise ImportError(f"simplexboundary imported from {cli.__file__}, not from this checkout")
    layer_trace = None
    if trace:
        import tracer

        layer_trace = tracer.Tracer(distinct=tracer.DISTINCT_KEYS)
        tracer.install_on_package(layer_trace)
    cli.build_parser()
    if workload == "eval":
        theta = _theta_module()
        for n in EVAL_DIMS:
            theta.theta(theta.ThetaKey(1, n, 1))
    return time.perf_counter() - start, layer_trace


def _theta_module():
    # The package re-exports the function ``theta`` under the submodule's name.
    return importlib.import_module("simplexboundary.theta")


def _check_report(path: Path, command: str):
    """(failed, points) of a verify-* JSON report.

    ``failed`` is 1 unless the report and each of its items say ``pass``.
    ``points`` counts the grid points checked: per equation instance, or
    per certificate pair.
    """
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"{command}: unreadable report: {exc}", file=sys.stderr)
        return 1, 0
    if "instances" in report:
        items = report["instances"]
        points = sum(item["points_checked"] for item in items)
    else:
        items = report["runs"]
        points = sum(item["pairs_checked"] * item["grid"]["size"] for item in items)
    if report["verdict"] != "pass" or not items or any(i["verdict"] != "pass" for i in items):
        print(f"{command}: verdict not pass", file=sys.stderr)
        return 1, 0
    return 0, points


def run_cli(workload: str, seed: int, out_dir: Path) -> dict:
    from simplexboundary import cli

    commands = CLI_COMMANDS[workload]
    outs = [out_dir / f"report{k}" for k in range(len(commands))]
    codes = []
    sink = io.StringIO()
    start = time.perf_counter()
    for command, out in zip(commands, outs):
        argv = list(command)
        if command[0] in SEEDED_COMMANDS:
            argv += ["--seed", str(seed)]
        argv += ["--out", str(out)]
        try:
            with contextlib.redirect_stdout(sink):
                codes.append(cli.main(argv))
        except Exception:
            traceback.print_exc()
            codes.append(None)
    work_s = time.perf_counter() - start

    failed = points = 0
    digest = hashlib.sha256()
    for command, out, code in zip(commands, outs, codes):
        if code != 0:
            print(f"{command[0]}: exit code {code}", file=sys.stderr)
            failed += 1
            continue
        if command[0] in SEEDED_COMMANDS:
            bad, checked = _check_report(out, command[0])
            failed += bad
            points += checked
        digest.update(out.read_bytes())
    return {"work_s": work_s, "ops": len(commands), "failed": failed,
            "points": points, "digest": digest.hexdigest()}


def run_eval(seed: int) -> dict:
    from simplexboundary import geometry

    theta = _theta_module()
    points = eval_points(seed)
    clock = time.perf_counter_ns
    latency_ns, rows = [], []
    failed = 0
    start = time.perf_counter()
    for n, text in points:
        t0 = clock()
        try:
            x = geometry.parse_point(text)
            y = theta.theta(theta.ThetaKey(1, n, 1))(x)
            line = f'"{geometry.format_point(x)}","{geometry.format_point(y)}"'
        except Exception:
            traceback.print_exc()
            failed += 1
            rows.append((n, None, None, f'"{text}",error'))
            continue
        latency_ns.append(clock() - t0)
        rows.append((n, x, y, line))
    work_s = time.perf_counter() - start

    den_bits = {n: 0 for n in EVAL_DIMS}
    for n, x, y, line in rows:
        if y is None:
            continue
        problem = output_error(x, y)
        if problem:
            print(f"theta(1,{n},1) at {line}: {problem}", file=sys.stderr)
            failed += 1
        den_bits[n] = max(den_bits[n], max(c.denominator.bit_length() for c in y))
    transcript = "\n".join(["input,output"] + [line for *_, line in rows]) + "\n"
    return {"work_s": work_s, "ops": len(points), "failed": failed, "points": len(points),
            "digest": hashlib.sha256(transcript.encode("utf-8")).hexdigest(),
            "latency_ns": latency_ns, "den_bits": den_bits}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup_s, layer_trace = setup(args.workload, args.trace)
    result = {"setup_s": setup_s}
    if not args.setup_only:
        if args.workload == "eval":
            result.update(run_eval(args.seed))
        else:
            result.update(run_cli(args.workload, args.seed, args.out_dir))
        if layer_trace is not None:
            result["trace"] = {
                "calls": layer_trace.calls,
                "self_ns": layer_trace.self_ns,
                "distinct": {name: len(keys) for name, keys in layer_trace.seen.items()},
            }
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
