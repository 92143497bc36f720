"""Tests of the benchmark's own logic: python3 -m pytest perfbench"""

import json
import subprocess
import sys
import textwrap
import types

import run
import worker
from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def spend(self, ns):
        self.now += ns


def test_self_time_subtracts_nested_and_recursive_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    ns = types.SimpleNamespace()

    def leaf():
        clock.spend(5)

    def countdown(k):  # recursive, and calls leaf at every level
        clock.spend(10)
        ns.leaf()
        if k:
            ns.countdown(k - 1)
        clock.spend(1)

    def outer():
        clock.spend(2)
        ns.countdown(2)
        ns.leaf()
        clock.spend(3)

    ns.leaf = tracer.wrap("leaf", leaf)
    ns.countdown = tracer.wrap("countdown", countdown)
    ns.outer = tracer.wrap("outer", outer)
    ns.outer()

    assert tracer.calls == {"leaf": 4, "countdown": 3, "outer": 1}
    assert tracer.self_ns == {"leaf": 4 * 5, "countdown": 3 * 11, "outer": 2 + 3}
    assert sum(tracer.self_ns.values()) == clock.now


def test_self_time_survives_an_exception():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fails():
        clock.spend(7)
        raise ValueError("boom")

    def caller():
        clock.spend(1)
        try:
            wrapped_fails()
        except ValueError:
            pass

    wrapped_fails = tracer.wrap("fails", fails)
    tracer.wrap("caller", caller)()
    assert tracer.calls == {"fails": 1, "caller": 1}
    assert tracer.self_ns == {"fails": 7, "caller": 1}


def test_distinct_keys_are_counted():
    tracer = Tracer(clock=FakeClock(), distinct={"f": lambda args: args})
    f = tracer.wrap("f", lambda a, b: a + b)
    for args in [(1, 2), (1, 2), (2, 1)]:
        f(*args)
    assert tracer.calls["f"] == 3
    assert tracer.seen["f"] == {(1, 2), (2, 1)}


def _python(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=run.HERE, capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout


def test_install_patches_every_namespace_that_bound_a_name():
    out = _python(f"""
        import json, sys
        sys.path.insert(0, {str(run.ROOT / "src")!r})
        import simplexboundary
        from simplexboundary import cli, chain, comfort, geometry, pl1d
        import tracer
        t = tracer.Tracer(distinct=tracer.DISTINCT_KEYS)
        tracer.install_on_package(t)
        theta_mod = sys.modules["simplexboundary.theta"]
        rebound = [comfort.pl_eval is pl1d.pl_eval, chain.face_insert is theta_mod.face_insert,
                   chain.theta is theta_mod.theta, cli.theta is theta_mod.theta,
                   simplexboundary.theta is theta_mod.theta,
                   cli.canonical_grid is geometry.canonical_grid]
        wrapped = [hasattr(f, "__wrapped__") for f in
                   (pl1d.pl_eval, theta_mod.theta, geometry.canonical_grid)]
        code = cli.main(["eval", "--map", "theta:L=1,n=2,i=1", "--point", "[0,1/6,5/6]"])
        print(json.dumps({{"rebound": rebound, "wrapped": wrapped, "code": code,
                           "calls": t.calls, "distinct": {{k: len(v) for k, v in t.seen.items()}}}}))
    """)
    result = json.loads(out.splitlines()[-1])
    assert all(result["rebound"]) and all(result["wrapped"])
    assert result["code"] == 0
    calls = result["calls"]
    for name in ("cli.main", "theta.theta", "comfort.SimplexHomeo.call",
                 "geometry.BaryPoint", "pl1d.pl_eval", "theta.theta1_on_face"):
        assert calls[name] > 0, name
    assert calls["chain.check_equation"] == 0
    assert result["distinct"]["theta.theta"] <= calls["theta.theta"]


def test_untraced_pass_imports_no_tracer():
    out = _python("""
        import sys, worker
        worker.setup("eval", False)
        plain = "tracer" in sys.modules
        worker.setup("eval", True)
        print(plain, "tracer" in sys.modules)
    """)
    assert out.split() == ["False", "True"]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(999) == 95
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(10_000) == 99.9
    assert run.percentile(range(1, 10_001), 99.9) == 9990
    assert run.percentile([3, 1, 2], 50) == 2


def _pass(digest, ops=4, failed=0):
    return {"digest": digest, "ops": ops, "failed": failed}


def test_digest_mismatch_counts_as_failure():
    assert run.gate([_pass("a"), _pass("a")], 4, recorded="a") == (8, 0, "a")
    assert run.gate([_pass("a"), _pass("b")], 4, recorded="a") == (8, 4, "a")
    assert run.gate([_pass("b"), _pass("b")], 4, recorded="a") == (8, 8, "b")
    # Without a record every pass must still agree with the first.
    assert run.gate([_pass("a"), _pass("b")], 4) == (8, 4, "a")
    # Failed operations add up; a pass that never finished fails them all.
    assert run.gate([_pass("a", failed=1), None], 4) == (8, 5, "a")


def test_eval_points_are_seeded_and_distinct():
    points = worker.eval_points(7)
    assert points == worker.eval_points(7) != worker.eval_points(8)
    assert len(set(points)) == len(points) == 6 * worker.EVAL_POINTS_PER_DIM


def test_output_check_rejects_a_broken_image():
    from fractions import Fraction as F

    x = (F(1, 4), F(3, 4))
    assert worker.output_error(x, (F(1, 5), F(4, 5))) == ""
    assert "order" in worker.output_error(x, (F(4, 5), F(1, 5)))
    assert "simplex" in worker.output_error(x, (F(1, 5), F(3, 5)))
    assert "equal" in worker.output_error((F(1, 2), F(1, 2)), x)


def test_benchmark_json_lists_what_run_prints():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(worker.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.layer_units()
