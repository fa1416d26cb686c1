"""The benchmark's workloads: fixed operation lists built from a seed.

An operation is one ``hyperc.cli.main(argv)`` call, or one public
library call where no subcommand exists (the tube sandwich).  The list
for one pass of a workload is a pure function of (workload, seed, pass
index): the seed picks each operation's ``--seed`` and, for ``solve``,
jitters the parameter grids.  Passes differ in their seeds so that a
result cache keyed on the inputs cannot turn repeats into no-ops; the
work per pass stays the same in expectation.

Each operation carries the unit of work it completes, the end-to-end
rate that work counts toward, and the correctness gate its output
must pass.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("f-grid", "f-deep", "tube", "solve")

# Work per pass as (trials or samples per operation, operations).  The
# work is split into operations of 0.05 - 0.3 s because the benchmark
# times a reference computation between operations (see runner.py), and
# the host's speed changes within a second.
# f-grid: r = 0..6, every window holds ~28 points; per-trial fixed cost
F_GRID = (1000, 5)
S_DIST_TRIALS = 20000
# f-deep: r up to 16, windows of 10^3 - 10^4 points, a 2-worker pool
F_DEEP = (500, 2)
F_DEEP_WORKERS = 2
# tube: one realization, many segments or directions
TUBE_D = 4.0
TUBE_S = 0.05
SANDWICH = {"vacant": (50, 2), "occupied": (2, 5), "lines": (100, 1)}
DETECT = {"vacant": (5.0, 20, 1), "occupied": (5.0, 4, 2), "lines": (10.0, 40, 1)}
RAYS = {"vacant": (40, 1), "occupied": (16, 1), "lines": (100, 1)}
# solve: renewal-equation solves only
SOLVE_R = (0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 3.0)
SOLVE_LAMBDA = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
SOLVE_JITTER = 0.05
# unjittered solves whose values gates.py records, run once per run
REFERENCE_R = (0.05, 0.3, 1.0, 3.0)
REFERENCE_LAMBDA = (0.2, 0.5, 1.0, 2.0)
# lambda_gc(6) raises SolverError at the baseline; the benchmark keeps it
# as a known-defect probe outside the timed operations (see README.md)
DEFECT_PROBE_R = 6.0

MODELS = {
    "vacant": {"lam": 0.1, "R": 1.0},
    "occupied": {"lam": 1.0, "R": 1.0},
    "lines": {"lam": 0.1, "R": None},
}


def _model_args(model: str) -> list[str]:
    p = MODELS[model]
    args = ["--model", model, "--lambda", repr(p["lam"])]
    if p["R"] is not None:
        args += ["--R", repr(p["R"])]
    return args


def _simulate_f(model, rmax, trials, workers, seed):
    trials = max(trials, 100)  # estimate_f refuses fewer
    argv = ["simulate-f", *_model_args(model), "--rmin", "0", "--rmax", repr(float(rmax)),
            "--rstep", "1" if rmax <= 6 else "2", "--trials", str(trials),
            "--workers", str(workers), "--seed", str(seed)]
    gate = "f_pointwise" if model != "occupied" else "alpha_occupied"
    return {"name": f"simulate-f.{model}", "cli": argv, "model": model,
            "rate": f"trials_per_s.{model}", "units": trials, "gate": gate,
            "params": dict(MODELS[model])}


def operations(workload: str, seed: int, pass_index: int = 0, scale: float = 1.0) -> list[dict]:
    """The operation list of one pass of ``workload``, as plain data.

    ``scale`` < 1 shrinks every trial and sample count (and the solve
    grids) for the untimed first-call warm-up that set-up includes.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{int(seed)}:{int(pass_index)}")

    def size(n: int) -> int:
        return max(1, int(round(n * scale)))

    def copies(n: int) -> range:
        return range(n if scale >= 1.0 else 1)

    def op_seed() -> int:
        return rng.getrandbits(40)

    ops: list[dict] = []
    if workload == "f-grid":
        for model in MODELS:
            for _ in copies(F_GRID[1]):
                ops.append(_simulate_f(model, 6, size(F_GRID[0]), 1, op_seed()))
        p = MODELS["occupied"]
        trials = size(S_DIST_TRIALS)
        ops.append({
            "name": "s-dist", "model": "occupied", "rate": None, "units": trials,
            "cli": ["s-dist", "--lambda", repr(p["lam"]), "--R", repr(p["R"]),
                    "--trials", str(trials), "--seed", str(op_seed())],
            "gate": "s_dist", "params": dict(p),
        })
    elif workload == "f-deep":
        for model in MODELS:
            rmax = 14 if model == "occupied" else 16
            for _ in copies(F_DEEP[1]):
                ops.append(_simulate_f(model, rmax, size(F_DEEP[0]), F_DEEP_WORKERS, op_seed()))
    elif workload == "tube":
        for model, (trials, n) in SANDWICH.items():
            for _ in copies(n):
                ops.append({
                    "name": f"sandwich.{model}", "model": model,
                    "rate": "sandwich_trials_per_s", "units": size(trials), "gate": "sandwich",
                    "call": {"d": TUBE_D, "s": TUBE_S, "model": model,
                             "trials": size(trials), "seed": op_seed(), **MODELS[model]},
                    "params": dict(MODELS[model]),
                })
        for model, (r, samples, n) in DETECT.items():
            for _ in copies(n):
                ops.append({
                    "name": f"detect-line.{model}", "model": model,
                    "rate": "ray_samples_per_s", "units": size(samples), "gate": "detect_line",
                    "params": dict(MODELS[model]),
                    "cli": ["detect-line", *_model_args(model), "--s", "0.1", "--r", repr(r),
                            "--samples", str(size(samples)), "--seed", str(op_seed())],
                })
        for model, (samples, n) in RAYS.items():
            for _ in copies(n):
                ops.append({
                    "name": f"rays.{model}", "model": model, "rate": "ray_samples_per_s",
                    "units": size(samples), "gate": "rays",
                    "params": {**MODELS[model], "r": 5.0, "directions": 64},
                    "cli": ["rays", *_model_args(model), "--r", "5.0", "--directions", "64",
                            "--samples", str(size(samples)), "--seed", str(op_seed())],
                })
    else:
        def jitter(v: float) -> float:
            return round(v * math.exp(rng.uniform(-SOLVE_JITTER, SOLVE_JITTER)), 6)

        ops += [_critical(jitter(R)) for R in SOLVE_R[: size(len(SOLVE_R))]]
        ops += [_alpha(jitter(lam)) for lam in SOLVE_LAMBDA[: size(len(SOLVE_LAMBDA))]]
    return ops


def _critical(R: float) -> dict:
    return {"name": "critical.occupied", "model": "occupied", "rate": "solves_per_s",
            "units": 1, "gate": "critical", "params": {"R": R},
            "cli": ["critical", "--model", "occupied", "--R", repr(R)]}


def _alpha(lam: float) -> dict:
    return {"name": "alpha.occupied", "model": "occupied", "rate": "solves_per_s",
            "units": 1, "gate": "alpha", "params": {"lam": lam, "R": 1.0},
            "cli": ["alpha", "--model", "occupied", "--lambda", repr(lam), "--R", "1.0"]}


def untimed_checks(workload: str) -> list[dict]:
    """Operations run once per benchmark run, outside the timed passes.

    For ``solve``: the solves at the fixed R and lambda whose values
    ``gates`` records (marked ``reference``; a failure counts as a failed
    operation), and the known-defect probe lambda_gc(6) (marked
    ``defect``; it fails at the baseline and is reported next to the
    metrics rather than counted as a failure).
    """
    if workload != "solve":
        return []
    ops = [{**_critical(R), "name": f"critical.occupied.R{R:g}", "reference": True}
           for R in REFERENCE_R]
    ops += [{**_alpha(lam), "name": f"alpha.occupied.lambda{lam:g}", "reference": True}
            for lam in REFERENCE_LAMBDA]
    ops.append({
        **_critical(DEFECT_PROBE_R), "name": "critical.occupied.R6", "rate": None,
        "defect": "lambda_gc(6) raises SolverError: the bisection stops on an absolute "
                  "width although lambda_gc(6) is about 1e-5",
    })
    return ops
