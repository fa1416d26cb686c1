"""Runs one workload inside a fresh interpreter: the measured side of
the benchmark.  ``run.py`` starts it; it is not meant to be run by hand.

    runner.py setup   --workload W --src SRC
    runner.py measure --workload W --seed N --seconds S --trace 0|1 --src SRC --out OUT

``setup`` times the import of hyperc and its lazy first-call set-up,
such as the cached line measure ``phi_ball``: the workload's operations
run twice at the smallest size, and the first round's extra time over
the second is the lazy set-up.

``measure`` runs the workload's passes, one operation after another
(a closed loop with one client), until ``--seconds`` have elapsed.
With ``--trace 1`` it alternates an untraced and a traced pass, both
with one worker, and reports per-layer numbers from the traced ones.

numpy, scipy and hyperc are imported only after the set-up clock has
started, so their import time is part of the set-up measurement.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import gates
import workloads


def _import_hyperc(src: str):
    sys.path.insert(0, src)
    import hyperc.cli

    where = os.path.realpath(hyperc.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"hyperc imported from {where}, not from {src}")
    return hyperc


def _sandwich(hyperc, call: dict) -> dict:
    p = hyperc.ModelParams(call["lam"], call["R"])
    res = hyperc.percolation.sandwich_AQ(
        hyperc.HPoint(0.0, 1.0), hyperc.HPoint(0.0, math.exp(call["d"])), call["s"],
        call["model"], p, call["trials"], hyperc.RngStream(call["seed"]),
    )
    return dataclasses.asdict(res)


def run_op(hyperc, op: dict) -> dict:
    """Run one operation; looks functions up at call time so a tracer's
    patches are seen.  Returns the exit code, parsed output and time."""
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        if "cli" in op:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = hyperc.cli.main(list(op["cli"]))
        else:
            out = _sandwich(hyperc, op["call"])
            code = 0
    except Exception:  # an exception is a failed operation, not a crash
        code, error = None, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    if "cli" in op and code == 0:
        text = stdout.getvalue()
        out = json.loads(text)
    elif code != 0:
        out, text = None, None
    else:
        text = json.dumps(out, sort_keys=True)
    if code not in (0, None):
        error = stderr.getvalue().strip().splitlines()[-1:] or [f"exit {code}"]
        error = error[0]
    return {"name": op["name"], "code": code, "out": out, "text": text,
            "seconds": elapsed, "error": error}


def with_workers(ops: list[dict], workers: int) -> list[dict]:
    out = []
    for op in ops:
        if "cli" in op and "--workers" in op["cli"]:
            argv = list(op["cli"])
            argv[argv.index("--workers") + 1] = str(workers)
            op = {**op, "cli": argv}
        out.append(op)
    return out


def run_pass(hyperc, ops: list[dict], after_op=None) -> dict:
    """Run the operations in order, then gate their outputs (untimed).

    ``after_op`` runs after each operation, outside the pass's time."""
    records, wall = [], 0.0
    for op in ops:
        records.append(run_op(hyperc, op))
        wall += records[-1]["seconds"]
        if after_op is not None:
            after_op()
    outs = [r["out"] for r in records]
    extra = gates.check_pass(ops, outs)
    for i, (op, rec) in enumerate(zip(ops, records)):
        checks = []
        if rec["out"] is not None:
            try:
                checks = gates.check_operation(op, rec["out"]) + extra.get(i, [])
            except (KeyError, TypeError, ValueError) as exc:  # malformed output
                checks = [{"check": op["gate"], "ok": False, "detail": repr(exc)}]
        rec["checks"] = checks
        rec["ok"] = rec["code"] == 0 and all(c["ok"] for c in checks)
    return {"wall_s": wall, "records": records}


def reference_seconds() -> float:
    """Time of a fixed computation that does not involve hyperc, shaped
    like the workloads' work: per-trial generator construction, Poisson
    and uniform draws and complex arithmetic on a few dozen points in a
    Python loop, then elementwise math on 1e5-element arrays.  About
    15 ms on an idle 2-core x86 host."""
    import numpy as np

    start = time.perf_counter()
    acc = 0.0
    for i in range(150):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(12345, spawn_key=(i,))))
        n = gen.poisson(30.0)
        t = np.arccosh(1.0 + 2.0 * gen.uniform(0.0, 1.0, n))
        w = np.tanh(t / 2.0) * np.exp(1j * gen.uniform(0.0, 2.0 * math.pi, n))
        z = 1j * (1.0 + w) / (1.0 - w)
        acc += float(np.log(np.abs(z)).sum())
    rng = np.random.default_rng(12345)
    for _ in range(3):
        y = rng.random(100_000)
        acc += float(np.log(np.cosh(y) + np.sort(y)).sum())
    return time.perf_counter() - start


def measured_pass(hyperc, ops: list[dict]) -> dict:
    """run_pass with the reference computation timed before the first
    operation and after every operation.

    The host's speed drifts by up to a factor of two within seconds
    (other jobs share it), and operation times drift with it.  Each
    operation's time over the mean of the reference times around it
    stays much steadier; ``wall_ref`` sums these ratios over the pass.
    The reference runs outside the operations' own timing.
    """
    refs = [reference_seconds()]

    def after_op():
        refs.append(reference_seconds())

    p = run_pass(hyperc, ops, after_op)
    p["reference_s"] = statistics.median(refs)
    p["wall_ref"] = sum(
        rec["seconds"] / (0.5 * (refs[i] + refs[i + 1])) for i, rec in enumerate(p["records"])
    )
    return p


def rates(ops: list[dict], passes: list[dict]) -> dict[str, float]:
    """Median over passes of work units per second, per rate key."""
    per_key: dict[str, list[float]] = {}
    for p in passes:
        units: dict[str, float] = {}
        seconds: dict[str, float] = {}
        for op, rec in zip(ops, p["records"]):
            if op["rate"] and rec["ok"]:
                units[op["rate"]] = units.get(op["rate"], 0) + op["units"]
                seconds[op["rate"]] = seconds.get(op["rate"], 0.0) + rec["seconds"]
        for key in units:
            per_key.setdefault(key, []).append(units[key] / seconds[key])
    return {k: statistics.median(v) for k, v in sorted(per_key.items())}


def _failures(passes: list[dict]) -> list[dict]:
    out = []
    for k, p in enumerate(passes):
        for rec in p["records"]:
            if not rec["ok"]:
                bad = [c for c in rec["checks"] if not c["ok"]]
                out.append({"pass": k, "op": rec["name"], "code": rec["code"],
                            "error": rec["error"], "checks": bad})
    return out


def _peak_rss_mb() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, kids


def _slim(passes: list[dict]) -> list[dict]:
    """Per-pass timings and gate results without the raw outputs."""
    return [{"wall_s": p["wall_s"], "wall_ref": p["wall_ref"],
             "ops": [{"name": r["name"], "seconds": r["seconds"], "ok": r["ok"]}
                     for r in p["records"]]} for p in passes]


def _alpha_abs_z(ops: list[dict], passes: list[dict]) -> dict[str, float]:
    """Median |alpha_hat - alpha_exact| / alpha_stderr per model, over
    the simulate-f operations; 0.0 for a model the workload does not run."""
    out = {}
    for model in workloads.MODELS:
        zs = [abs(rec["out"]["results"]["alpha_hat"] - rec["out"]["results"]["alpha_analytic"])
              / rec["out"]["results"]["alpha_stderr"]
              for p in passes for op, rec in zip(ops, p["records"])
              if op["name"] == f"simulate-f.{model}" and rec["out"] is not None]
        out[f"percolation.alpha_abs_z.{model}"] = statistics.median(zs) if zs else 0.0
    return out


# ---------------------------------------------------------------------------


def _set_up(args):
    """Import hyperc and finish its lazy first-call set-up, timing both.

    The workload's operations run twice at the smallest size.  The first
    round fills lazy caches and the second finds them filled, while both
    do the same kernel work; so the lazy set-up is the first round's time
    minus the second's, and a faster kernel does not read as faster
    set-up.  ``setup_s`` is the import plus the lazy set-up."""
    start = time.perf_counter()
    hyperc = _import_hyperc(args.src)
    import_s = time.perf_counter() - start
    warm = workloads.operations(args.workload, 0, 0, scale=0.0)
    first = [run_op(hyperc, op) for op in warm]
    again = [run_op(hyperc, op) for op in warm]
    bad = [r["name"] for r in first + again if r["code"] != 0]
    if bad:
        raise SystemExit(f"warm-up operations failed: {bad}")
    first_s = sum(r["seconds"] for r in first)
    lazy_s = max(0.0, first_s - sum(r["seconds"] for r in again))
    return hyperc, {"import_s": import_s, "first_call_s": first_s, "lazy_s": lazy_s,
                    "setup_s": import_s + lazy_s}


def cmd_setup(args) -> dict:
    return _set_up(args)[1]


def cmd_measure(args) -> dict:
    if args.trace:
        start = time.perf_counter()
        hyperc = _import_hyperc(args.src)
        return _measure_traced(args, hyperc, time.perf_counter() - start)
    hyperc, setup = _set_up(args)
    reference_seconds()  # its own first call is slower

    passes, ops_by_pass = [], []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        ops = workloads.operations(args.workload, args.seed, len(passes))
        ops_by_pass.append(ops)
        passes.append(measured_pass(hyperc, ops))
    checked, probes = _run_untimed_checks(hyperc, args.workload)
    own, kids = _peak_rss_mb()
    attempted = sum(len(p["records"]) for p in passes + [checked])
    failures = _failures(passes + [checked])
    return {
        "setup": setup,
        "passes": _slim(passes),
        "wall_s": [p["wall_s"] for p in passes],
        "reference_s": [p["reference_s"] for p in passes],
        "wall_ref": [p["wall_ref"] for p in passes],
        "rates": rates(ops_by_pass[0], passes),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_self_mb": own,
        "peak_rss_children_mb": kids,
        "alpha_abs_z": _alpha_abs_z(ops_by_pass[0], passes),
        "untimed_checks": [{"name": r["name"], "ok": r["ok"]} for r in checked["records"]],
        "defect_probes": probes,
    }


def _run_untimed_checks(hyperc, workload: str) -> tuple[dict, list[dict]]:
    """Run the workload's untimed checks once.  Returns the gated ones as
    a pass (their failures count) and the known-defect probes' outcomes."""
    ops = workloads.untimed_checks(workload)
    records = run_pass(hyperc, ops)["records"]
    gated = [rec for op, rec in zip(ops, records) if "defect" not in op]
    probes = [{"name": op["name"], "defect": op["defect"], "still_fails": not rec["ok"],
               "code": rec["code"], "error": rec["error"]}
              for op, rec in zip(ops, records) if "defect" in op]
    return {"records": gated}, probes


def _measure_traced(args, hyperc, import_s: float) -> dict:
    import layers
    from tracer import Tracer

    targets, scan = layers.build_targets()
    tracer = Tracer(targets, scan)
    warm_start = time.perf_counter()
    with tracer:
        for op in with_workers(workloads.operations(args.workload, 0, 0, scale=0.0), 1):
            run_op(hyperc, op)
    first_call_s = time.perf_counter() - warm_start
    phi_ball_s = tracer.totals().get("sampling.phi_ball", (0, 0.0))[1]
    tracer.reset()
    reference_seconds()  # its own first call is slower

    native = workloads.operations(args.workload, args.seed, 0)
    max_workers = max([int(op["cli"][op["cli"].index("--workers") + 1])
                       for op in native if "cli" in op and "--workers" in op["cli"]] or [1])
    native_pass = measured_pass(hyperc, native) if max_workers > 1 else None

    plain, traced, layer_rows, all_passes = [], [], [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < args.seconds:
        k = len(traced)
        ops = with_workers(workloads.operations(args.workload, args.seed, k), 1)
        plain.append(measured_pass(hyperc, ops))
        tracer.reset()
        with tracer:
            p = measured_pass(hyperc, ops)
        traced.append(p)
        layer_rows.append(layers.layer_metrics(tracer, p["wall_s"]))
        all_passes += [plain[-1], p]
    spans = len(tracer.spans)
    if args.spans:
        tracer.write_spans(args.spans)

    tracer.reset()
    with tracer:
        checked, probes = _run_untimed_checks(hyperc, args.workload)
    probe_errors = sum(n for key, n in tracer.errors.items() if key.endswith(":SolverError"))

    metrics = {key: statistics.median(row[key] for row in layer_rows) for key in layer_rows[0]}
    metrics["analytic.solver_errors"] += probe_errors
    metrics["trace.overhead_frac"] = statistics.median(
        t["wall_ref"] / p["wall_ref"] for t, p in zip(traced, plain)) - 1.0
    if native_pass is not None:
        metrics["percolation.parallel_eff"] = plain[0]["wall_ref"] / (
            max_workers * native_pass["wall_ref"])
    else:
        metrics["percolation.parallel_eff"] = 1.0
    metrics["setup.import_s"] = import_s
    metrics["setup.first_call_s"] = first_call_s
    metrics["setup.phi_ball_s"] = phi_ball_s
    metrics.update(_alpha_abs_z(ops, traced))

    identical = None
    if native_pass is not None:
        # results must not depend on --workers; the config echoes the
        # worker count, so the results sections are compared byte for byte
        identical = all(
            a["out"] is not None and b["out"] is not None
            and json.dumps(a["out"]["results"], sort_keys=True)
            == json.dumps(b["out"]["results"], sort_keys=True)
            for a, b in zip(native_pass["records"], plain[0]["records"])
        )
    if identical is False:
        for rec in native_pass["records"]:
            rec["ok"] = False
            rec["checks"].append({"check": "workers_identical", "ok": False,
                                  "detail": "results differ between workers=1 and workers=2"})
    if native_pass is not None:
        all_passes.insert(0, native_pass)
    all_passes.append(checked)
    failures = _failures(all_passes)
    own, kids = _peak_rss_mb()
    return {
        "per_layer": metrics,
        "layer_rows": layer_rows,
        "plain_passes": _slim(plain),
        "traced_passes": _slim(traced),
        "native_pass": _slim([native_pass])[0] if native_pass else None,
        "workers_identical": identical,
        "spans_written": spans if args.spans else 0,
        "attempted": sum(len(p["records"]) for p in all_passes),
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_self_mb": own,
        "peak_rss_children_mb": kids,
        "untimed_checks": [{"name": r["name"], "ok": r["ok"]} for r in checked["records"]],
        "defect_probes": probes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="measured side of perfbench")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in ("setup", "measure"):
        p = sub.add_parser(name)
        p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
        p.add_argument("--src", required=True)
        p.add_argument("--out", required=True)
        if name == "measure":
            p.add_argument("--seed", type=int, required=True)
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--trace", type=int, choices=(0, 1), required=True)
            p.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    result = cmd_setup(args) if args.cmd == "setup" else cmd_measure(args)
    if args.cmd == "measure":
        import numpy
        import scipy

        result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
