"""Tests of the benchmark itself: the tracer's accounting and clean-up,
the gates' power against a wrong law, and seeded operation lists."""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
import types

import pytest

import gates
import layers
import runner
import workloads
from tracer import Target, Tracer, layer_self_times

hyperc = pytest.importorskip("hyperc")
import hyperc.cli  # noqa: E402


def _cli(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert hyperc.cli.main(argv) == 0
    return json.loads(buf.getvalue())


# -- tracer -----------------------------------------------------------------


def _toy_module():
    mod = types.ModuleType("toy")

    def leaf(n):
        return sum(range(n))

    def middle(n):
        return mod.leaf(n) + mod.leaf(2 * n)

    def top(n):
        time.sleep(0.001)
        return mod.middle(n) + mod.leaf(n)

    mod.leaf, mod.middle, mod.top = leaf, middle, top
    return mod


def test_self_times_add_up_to_traced_wall():
    mod = _toy_module()
    seen = []
    targets = [Target("a.top", mod, "top"), Target("b.middle", mod, "middle"),
               Target("c.leaf", mod, "leaf", hook=lambda tr, a, k, r: seen.append(r))]
    tr = Tracer(targets, scan=[mod])
    with tr:
        start = time.perf_counter_ns()
        for n in (1000, 20000, 5):
            mod.top(n)
        sum(range(50000))  # untraced work between calls
        wall = (time.perf_counter_ns() - start) * 1e-9
    by_layer = layer_self_times(tr.self_times())
    assert set(by_layer) == {"a", "b", "c", "trace"}
    assert len(seen) == 9
    unattributed = wall - tr.root_seconds()
    assert unattributed > 0
    assert math.isclose(sum(by_layer.values()) + unattributed, wall, rel_tol=1e-9)
    assert by_layer["a"] >= 0.003  # the sleeps are top's own time


def test_layer_metrics_add_up_on_a_real_pass():
    targets, scan = layers.build_targets()
    tr = Tracer(targets, scan)
    ops = runner.with_workers(workloads.operations("f-grid", 3, 0, scale=0.02), 1)
    with tr:
        p = runner.run_pass(hyperc, ops)
    assert all(rec["code"] == 0 for rec in p["records"])
    m = layers.layer_metrics(tr, p["wall_s"])
    parts = sum(m[f"{layer}.self_s"] for layer in layers.LAYERS)
    parts += m["trace.hook_s"] + m["trace.unattributed_s"]
    assert math.isclose(parts, p["wall_s"], rel_tol=1e-9)
    assert m["percolation.trials"] == sum(
        op["units"] for op in ops if op["name"].startswith("simulate-f"))
    assert m["sampling.rng_streams"] >= 3 * 100
    assert 0 < m["sampling.points_used_frac"] <= 1
    assert 0 <= m["sampling.lines_used_frac"] <= 1


def _hyperc_attributes():
    mods = [m for name, m in sys.modules.items()
            if m is not None and (name == "hyperc" or name.startswith("hyperc."))]
    attrs = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    attrs.update({("RngStream", k): v for k, v in vars(hyperc.RngStream).items()})
    return attrs


def test_every_patched_attribute_is_restored():
    before = _hyperc_attributes()
    targets, scan = layers.build_targets()
    tr = Tracer(targets, scan)
    with pytest.raises(RuntimeError):
        with tr:
            # the copies made by `from .x import y` are patched as well
            assert hyperc.sample_points is not before[("hyperc", "sample_points")]
            assert hyperc.percolation.sample_points is hyperc.sampling.sample_points
            assert hyperc.cli.estimate_f is hyperc.percolation.estimate_f
            assert hyperc.RngStream.__dict__["generator"].__wrapped__ is (
                before[("RngStream", "generator")])
            raise RuntimeError("leave the block early")
    after = _hyperc_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


# -- gates ------------------------------------------------------------------


def _op(workload: str, name: str) -> dict:
    return next(op for op in workloads.operations(workload, 7) if op["name"] == name)


def _f_op(model: str, lam: float) -> dict:
    op = _op("f-grid", f"simulate-f.{model}")
    argv = list(op["cli"])
    argv[argv.index("--lambda") + 1] = repr(lam)
    return op, argv


@pytest.mark.parametrize("model", ["vacant", "lines"])
def test_f_gate_rejects_twice_the_intensity(model):
    op, argv = _f_op(model, workloads.MODELS[model]["lam"])
    assert all(c["ok"] for c in gates.check_operation(op, _cli(argv)))
    _, argv = _f_op(model, 2 * workloads.MODELS[model]["lam"])
    assert not any(c["ok"] for c in gates.check_operation(op, _cli(argv)))


@pytest.mark.parametrize("n, p", [(500, 0.0165), (1000, 0.174), (1000, 1.0)])
def test_f_gate_false_alarm_rate_is_at_most_the_stated_tail(n, p):
    from scipy.stats import binom

    op = {"model": "lines", "params": {"lam": -math.log(p)}}
    rejected = [k for k in range(n + 1) if not gates.gate_f_pointwise(
        op, {"results": {"r": [1.0], "f_hat": [k / n]}, "config": {"trials": n}})[0]["ok"]]
    assert 0 < len(rejected) < n + 1
    assert sum(binom.pmf(rejected, n, p)) <= gates.TAIL


def test_alpha_gate_rejects_twice_the_intensity():
    op = _op("f-grid", "simulate-f.occupied")
    out = _cli(op["cli"])
    assert all(c["ok"] for c in gates.check_operation(op, out))
    lam = 2 * op["params"]["lam"]
    wrong = hyperc.alpha_occupied(hyperc.ModelParams(lam, op["params"]["R"])).alpha
    out["results"]["alpha_analytic"] = wrong
    assert not any(c["ok"] for c in gates.check_operation(op, out))


def test_s_dist_gate_rejects_twice_the_intensity():
    op = _op("f-grid", "s-dist")
    out = _cli(op["cli"])
    assert all(c["ok"] for c in gates.check_operation(op, out))
    # the empirical law at 2 lambda against the exact law at lambda
    lam, R = op["params"]["lam"], op["params"]["R"]
    n = int(out["config"]["trials"])
    emp = hyperc.estimate_S_cdf(hyperc.ModelParams(2 * lam, R), n, hyperc.RngStream(5))
    ts = [2 * R * k / 100 for k in range(1, 101)]
    exact = [hyperc.hitting_cdf(t, hyperc.ModelParams(lam, R)) for t in ts]
    out["results"]["sup_distance"] = max(abs(a - b) for a, b in zip(emp.empirical_cdf(ts), exact))
    out["results"]["neg_inf_mass"] = emp.neg_inf_mass
    assert not any(c["ok"] for c in gates.check_operation(op, out))


def test_rays_gate_rejects_twice_the_intensity():
    op = _op("tube", "rays.lines")
    argv = list(op["cli"])
    argv[argv.index("--samples") + 1] = "1000"
    assert all(c["ok"] for c in gates.check_operation(op, _cli(argv)))
    argv[argv.index("--lambda") + 1] = repr(2 * op["params"]["lam"])
    checks = {c["check"]: c["ok"] for c in gates.check_operation(op, _cli(argv))}
    assert checks == {"rays_range": True, "rays_mean": False}


def test_sandwich_gate_checks_the_order():
    ok = {"p_A": 0.5, "f_hat": 0.4, "p_Q": 0.3, "trials": 10}
    assert gates.gate_sandwich({}, ok)[0]["ok"]
    assert not gates.gate_sandwich({}, {**ok, "p_Q": 0.5})[0]["ok"]
    assert not gates.gate_sandwich({}, {**ok, "p_A": 0.3})[0]["ok"]


def test_solve_gates_reject_residuals_and_order():
    ops = workloads.operations("solve", 7)
    crit = [i for i, op in enumerate(ops) if op["gate"] == "critical"][:2]
    outs = [None] * len(ops)
    lo, hi = (ops[i]["params"]["R"] for i in crit)
    outs[crit[0]] = {"results": {"lambda_critical": 2.0, "alpha_residual": 1e-12}}
    outs[crit[1]] = {"results": {"lambda_critical": 1.0, "alpha_residual": 1e-6}}
    assert lo < hi
    assert gates.check_operation(ops[crit[0]], outs[crit[0]])[0]["ok"]
    assert not gates.check_operation(ops[crit[1]], outs[crit[1]])[0]["ok"]
    assert gates.check_pass(ops, outs)[crit[1]][0]["ok"]
    outs[crit[1]]["results"]["lambda_critical"] = 3.0  # increasing in R
    assert not gates.check_pass(ops, outs)[crit[1]][0]["ok"]


def test_solve_value_gates_reject_a_wrong_value():
    ops = workloads.untimed_checks("solve")
    refs = [op for op in ops if op.get("reference")]
    assert {op["params"].get("R") for op in refs if op["gate"] == "critical"} == set(
        gates.REFERENCE_LAMBDA_GC)
    assert {op["params"]["lam"] for op in refs if op["gate"] == "alpha"} == set(
        gates.REFERENCE_ALPHA_R1)
    for op in refs:
        out = _cli(op["cli"])
        assert all(c["ok"] for c in gates.check_operation(op, out)), op["name"]
        key = "lambda_critical" if op["gate"] == "critical" else "alpha"
        out["results"][key] *= 1.0 + 1e-4  # residuals unchanged, value off
        checks = {c["check"]: c["ok"] for c in gates.check_operation(op, out)}
        assert not checks[f"{op['gate']}_value"]
    assert [op for op in ops if "defect" in op][0]["params"]["R"] == workloads.DEFECT_PROBE_R


# -- workloads --------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_operation_list_is_a_pure_function_of_the_seed(workload):
    a = workloads.operations(workload, 11, 2)
    assert a == workloads.operations(workload, 11, 2)
    assert json.loads(json.dumps(a)) == a  # plain data
    assert a != workloads.operations(workload, 12, 2)
    assert a != workloads.operations(workload, 11, 3)
    assert [op["name"] for op in a] == [op["name"] for op in workloads.operations(workload, 12)]
