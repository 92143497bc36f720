"""The repository benchmark for simplexboundary.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the package under
``src/`` there.  Every workload is a closed loop with one caller: each
pass runs in a fresh interpreter (``worker.py``), and the next pass
starts only after the previous one has ended, so at most one runs at a
time.  Passes repeat while the next one is expected to end within
``--seconds``; a run makes at least ``MIN_PASSES``, so that a run of
the L = 1 suites, whose passes take most of ``--seconds``, spans two
of them and one burst of other load on the machine moves it less.

Workloads (why each is here is recorded in BENCHMARK.json):

* ``equations``: ``verify-equations --L 1 --n 1 --n-max 3``, the
  commutation identity for the Θ family.
* ``certificate``: ``verify-boundary --m 9,4 --n 2 --n-max 4``, then
  ``homology --m 9,4 --n-max 8``, the ∂∘∂ = 0 certificate.
* ``classical``: ``verify-equations --L 0 --n 1 --n-max 8``, then
  ``verify-boundary --m 1 --n 2 --n-max 8``, where every Θ is the
  identity.
* ``eval``: θ(1,n,1) on 128 distinct seeded points for each n = 1..6,
  one point per call, along the path ``cli eval`` takes.

``--trace 0`` reports the end-to-end metrics with nothing wrapped.
``--trace 1`` runs one plain pass and two traced passes of the same
inputs, reports per-layer call counts and self time, and fails the run
when the counts of the two traced passes differ.

Each operation (a CLI command, or one eval point) that raises, exits
non-zero, reports a verdict other than ``pass`` or gives an invalid
output counts as failed.  The report bytes (the ``--out`` JSON, the
homology text, the eval CSV transcript) are hashed with SHA-256; where
``digests.json`` records the digest for the seed, a pass that differs
fails all its operations, and every other digest is printed so that
two commits can be compared.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit, and give the eval latency
percentiles, the fail ratio, the digest and the run's context.

The benchmark's own tests: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: The grid seed of the CLI workloads, the CLI's own default, and the
#: default ``--seed``.  The cost of one 128-point grid differs by about
#: 20% between grid seeds, and a run has room for two passes of each
#: L = 1 suite, so a seeded grid would make the spread between runs that
#: of the inputs, not of the program.  ``--seed`` varies the eval points.
CLI_GRID_SEED = 0x5EED
MIN_PASSES = 2
SETUP_PASSES = 9
TRACED_PASSES = 2
#: Every pass must end this long after the start, well inside 180 s.
DEADLINE_S = 165.0

TAIL_PERCENTILES = (50, 90, 95, 99, 99.9, 99.99)
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {"points_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class ProgramMissing(RuntimeError):
    """Not even set-up succeeded, so there is no program to measure."""


# ---------------------------------------------------------------------------
# Statistics


def _rank(p: float, count: int) -> int:
    # Exact, so that e.g. p99.9 of 10000 samples is rank 9990, not 9991.
    return max(1, math.ceil(Fraction(str(p)) * count / 100))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of ``values`` (0 < p <= 100)."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(count: int):
    """The highest listed percentile with at least ten samples beyond it.

    The samples beyond the nearest-rank p-th percentile of ``count``
    samples are the ``count - ceil(p/100 * count)`` larger ranks.
    ``None`` when even the median has fewer than ten beyond it.
    """
    best = None
    for p in TAIL_PERCENTILES:
        if count - _rank(p, count) >= TAIL_MIN_BEYOND:
            best = p
    return best


# ---------------------------------------------------------------------------
# Correctness gate


def load_digests() -> dict:
    """Recorded report digests: workload -> seed (as text) -> SHA-256 hex."""
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def gate(passes, expected_ops: int, recorded=None):
    """Attempted and failed operations over ``passes``, and the first digest.

    A pass that did not finish (``None``) fails all ``expected_ops`` of
    its operations.  A pass whose report digest differs from
    ``recorded`` (or, with no record, from the first finished pass) has
    all its operations failed, since its report bytes are wrong.
    """
    digests = [result["digest"] for result in passes if result is not None]
    first = digests[0] if digests else None
    reference = recorded or first
    attempted = failed = 0
    for result in passes:
        if result is None:
            attempted += expected_ops
            failed += expected_ops
            continue
        attempted += result["ops"]
        if result["digest"] != reference:
            print(f"digest mismatch: {result['digest']} != {reference}", file=sys.stderr)
            failed += result["ops"]
        else:
            failed += result["failed"]
    return attempted, failed, first


def input_seed(workload: str, seed: int) -> int:
    return seed if workload == "eval" else CLI_GRID_SEED


def expected_ops(workload: str) -> int:
    if workload == "eval":
        return len(worker.EVAL_DIMS) * worker.EVAL_POINTS_PER_DIM
    return len(worker.CLI_COMMANDS[workload])


# ---------------------------------------------------------------------------
# Passes


def run_pass(workload: str, seed: int, out_dir: Path, deadline: float, *flags: str):
    """One fresh-interpreter pass; its result, or ``None`` if it failed."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--out-dir", str(out_dir), *flags]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the pass
        print(f"pass of {workload} stopped after {timeout:.0f} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"pass of {workload} exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def measured_passes(workload: str, seed: int, out_dir: Path, seconds: float, deadline: float):
    """``MIN_PASSES`` passes, then more until the next, as long as the
    last, would end after ``seconds``."""
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(run_pass(workload, seed, out_dir, deadline))
        now = time.monotonic()
        if passes[-1] is None or now + (now - began) > deadline:
            return passes
        if len(passes) >= MIN_PASSES and (now - start) + (now - began) > seconds:
            return passes


def setup_samples(workload: str, seed: int, out_dir: Path, deadline: float):
    samples = []
    for _ in range(SETUP_PASSES):
        result = run_pass(workload, seed, out_dir, deadline, "--setup-only")
        if result is None:
            raise ProgramMissing(f"set-up of {workload} failed")
        samples.append(result["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(done, setups) -> dict:
    """Medians over the finished passes and the set-up samples."""
    return {
        "points_per_s": statistics.median(p["points"] / p["work_s"] for p in done),
        "setup_s": statistics.median(setups + [p["setup_s"] for p in done]),
        "peak_rss_mb": statistics.median(p["rss_kb"] / 1024 for p in done),
    }


def eval_latency_lines(done) -> list:
    latencies = [ns / 1e6 for p in done for ns in p["latency_ns"]]
    lines = [f"eval_p50_ms = {statistics.median(latencies):.6g} ms ({len(latencies)} calls)"]
    tail = tail_percentile(len(latencies))
    if tail is not None:
        lines.append(
            f"eval_tail_ms = {percentile(latencies, tail):.6g} ms "
            f"(p{tail:g}, {len(latencies)} calls)"
        )
    return lines


def layer_units() -> dict:
    """Per-layer metric names and units, in the order they are printed."""
    import tracer

    units = {}
    for name in tracer.traced_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units[f"{tracer.HOMEO_CALL}.distinct"] = "count"
    units[f"{tracer.HOMEO_CALL}.distinct_ratio"] = "ratio"
    units[f"{tracer.THETA}.hit_ratio"] = "ratio"
    for n in worker.EVAL_DIMS:
        units[f"theta.den_bits.n{n}"] = "bits"
    units["trace_overhead"] = "ratio"
    return units


def counts_of(result) -> dict:
    """Everything in a traced pass that must repeat exactly."""
    trace = result["trace"]
    return {"calls": trace["calls"], "distinct": trace["distinct"],
            "den_bits": result.get("den_bits", {})}


def per_layer(plain, traced) -> dict:
    import tracer

    trace = traced[0]["trace"]
    metrics = {}
    for name in tracer.traced_names():
        metrics[f"{name}.calls"] = trace["calls"][name]
        metrics[f"{name}.self_s"] = statistics.median(
            t["trace"]["self_ns"][name] / 1e9 for t in traced
        )
    calls = trace["calls"][tracer.HOMEO_CALL]
    distinct = trace["distinct"][tracer.HOMEO_CALL]
    metrics[f"{tracer.HOMEO_CALL}.distinct"] = distinct
    metrics[f"{tracer.HOMEO_CALL}.distinct_ratio"] = distinct / calls if calls else 0.0
    calls = trace["calls"][tracer.THETA]
    keys = trace["distinct"][tracer.THETA]
    metrics[f"{tracer.THETA}.hit_ratio"] = (calls - keys) / calls if calls else 0.0
    den_bits = traced[0].get("den_bits", {})
    for n in worker.EVAL_DIMS:
        metrics[f"theta.den_bits.n{n}"] = den_bits.get(str(n), 0)
    metrics["trace_overhead"] = (
        statistics.median(t["work_s"] for t in traced) / plain["work_s"]
    )
    return metrics


# ---------------------------------------------------------------------------
# Driver


def commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(workload: str, run_seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    seed = input_seed(workload, run_seed)
    recorded = load_digests().get(workload, {}).get(str(seed))
    lines = []
    if trace:
        plain = run_pass(workload, seed, out_dir, deadline)
        if plain is None:
            raise ProgramMissing(f"plain pass of {workload} failed")
        traced = [run_pass(workload, seed, out_dir, deadline, "--trace")
                  for _ in range(TRACED_PASSES)]
        passes = [plain] + traced
        attempted, failed, digest = gate(passes, expected_ops(workload), recorded)
        repeat = all(t is not None for t in traced) and all(
            counts_of(t) == counts_of(traced[0]) for t in traced[1:]
        )
        lines.append(f"counts repeat between traced passes: {'yes' if repeat else 'NO'}")
        correct = failed == 0 and repeat
        metrics = per_layer(plain, traced) if repeat else {}
        units = layer_units()
    else:
        setups = setup_samples(workload, seed, out_dir, deadline)
        passes = measured_passes(workload, seed, out_dir, seconds, deadline)
        attempted, failed, digest = gate(passes, expected_ops(workload), recorded)
        correct = failed == 0
        done = [p for p in passes if p is not None]
        metrics = end_to_end(done, setups) if done else {}
        units = END_TO_END_UNITS
        if workload == "eval" and done:
            lines += eval_latency_lines(done)

    lines.append(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    status = "no record" if recorded is None else (
        "matches record" if digest == recorded else "differs from record")
    lines.append(f"digest = {digest} ({status})")
    done = [p for p in passes if p is not None]
    context = {
        "workload": workload, "seed": run_seed, "input_seed": seed, "trace": int(trace),
        "python": platform.python_version(), "commit": commit(), "nproc": os.cpu_count(),
        "passes": len(passes),
        "ops_per_pass": expected_ops(workload),
        "points_per_pass": done[0]["points"] if done else 0,
    }
    lines.append("context = " + json.dumps(context, sort_keys=True))
    metric_lines = [f"{name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    for line in metric_lines + lines:
        print(line)
    return {
        "correct": correct and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="simplexboundary benchmark")
    parser.add_argument("--workload", required=True, choices=worker.WORKLOADS)
    parser.add_argument("--seed", type=int, default=CLI_GRID_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    except ProgramMissing as exc:
        print(f"benchmark: {exc}; nothing to measure", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
