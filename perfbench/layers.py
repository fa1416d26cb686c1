"""The hyperc layers as the benchmark traces them, and their counters.

Layers are modules.  Each traced function is named ``<layer>.<function>``
and wrapped from outside by ``tracer.Tracer``; the hooks below compute
counters from a call's arguments and result.  ``treecover`` and
``render`` are not traced: no workload spends measurable time there.

One limit of tracing from outside: the lines trial inside
``estimate_f`` draws its lines inline rather than through
``sample_lines``, so that draw counts as ``percolation`` self time.
"""

from __future__ import annotations

import inspect
import math
import sys

import numpy as np

from tracer import Target, Tracer, layer_self_times

LAYERS = ("cli", "percolation", "sampling", "geometry", "analytic")
GEOMETRY_FUNCTIONS = (
    "polar_around_origin",
    "axis_coordinates",
    "segment_point_distance",
    "to_hyperboloid",
    "dist_arrays",
)
# points_used_frac is computed on every USED_EVERY-th window to keep the
# tracer's own cost small; the draws are i.i.d., so the ratio is unbiased
USED_EVERY = 8
PERCOLATION_FUNCTIONS = (
    "estimate_f",
    "sandwich_AQ",
    "surviving_directions",
    "detect_line_through_ball",
    "estimate_S_cdf",
)
# the functions whose calls run trials one at a time; estimate_S_cdf
# draws all of its trials in one vectorized batch and is not counted
TRIAL_FUNCTIONS = PERCOLATION_FUNCTIONS[:4]


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(v) for v in obj)
    return 0


def _geometry_hook(fn: str, elements):
    def hook(tr: Tracer, args, kwargs, result):
        n = elements(result)
        tr.count(f"geometry.{fn}_elements", n)
        tr.count(f"geometry.{fn}_bytes_computed", _nbytes(args) + _nbytes(result))
        if fn == "segment_point_distance":
            tr.count("percolation.segment_pairs", n)

    return hook


def _trials_hook(per_call=None):
    def hook(tr: Tracer, args, kwargs, result):
        tr.count("percolation.trials", per_call if per_call else result.trials)

    return hook


def build_targets():
    """Targets for every traced public function, and the modules to scan.

    Imports hyperc; call after the package is importable.
    """
    import hyperc.analytic as analytic
    import hyperc.cli as cli
    import hyperc.geometry as geometry
    import hyperc.percolation as percolation
    import hyperc.sampling as sampling

    axis_coordinates = geometry.axis_coordinates
    estimate_f_sig = inspect.signature(percolation.estimate_f)

    last = [None, None]  # the args tuple of the last estimate_f call seen, bound

    def estimate_f_context(tr: Tracer):
        ctx = tr.enclosing("percolation.estimate_f")
        if ctx is None:
            return None
        if last[0] is not ctx[0]:  # holding the tuple keeps its identity unique
            last[:] = [ctx[0], estimate_f_sig.bind(*ctx[0], **ctx[1]).arguments]
        return last[1]

    def points_hook(tr: Tracer, args, kwargs, result):
        ctx = estimate_f_context(tr)
        if ctx is None:
            return
        tr.count("sampling.f_trials_points", 1)
        tr.count("sampling.f_points_drawn", len(result.points))
        if int(tr.counters["sampling.f_trials_points"]) % USED_EVERY:
            return
        # share of the window's points within R of the trial's longest
        # segment, which runs along the axis over feet [0, r_max]
        R = ctx["params"].radius
        r_max = float(np.max(ctx["r_values"]))
        u, y = axis_coordinates(result.points)
        excess = u - np.clip(u, 0.0, r_max)
        used = np.count_nonzero(np.cosh(excess) * np.cosh(y) < math.cosh(R))
        tr.count("sampling.f_points_checked", len(result.points))
        tr.count("sampling.f_points_used", used)

    def phi_ball_hook(tr: Tracer, args, kwargs, result):
        ctx = estimate_f_context(tr)
        if ctx is None or ctx["model"] != "lines":
            return
        # expected share of the drawn lines that cross the segment:
        # phi_segment(r_max) = r_max over the measure of the drawn ball
        tr.count("sampling.f_line_draws", 1)
        tr.count("sampling.f_lines_used_sum", float(np.max(ctx["r_values"])) / result)

    def alpha_hook(tr: Tracer, args, kwargs, result):
        tr.count("analytic.bisection_iters", result.iterations)
        tr.peak("analytic.max_residual", abs(result.residual))
        if tr.enclosing("analytic.lambda_gc") is None:
            tr.count("analytic.solves")
        else:
            tr.count("analytic.bisection_iters")  # one outer lambda_gc step

    def lambda_gc_hook(tr: Tracer, args, kwargs, result):
        tr.count("analytic.solves")

    elements = {
        "polar_around_origin": lambda r: r.size,
        "axis_coordinates": lambda r: r[0].size,
        "segment_point_distance": lambda r: r[0].size,
        "to_hyperboloid": lambda r: r.size // 3,
        "dist_arrays": lambda r: np.size(r),
    }
    targets = [Target("cli.main", cli, "main")]
    trial_hooks = {
        "surviving_directions": _trials_hook(1),
        "detect_line_through_ball": _trials_hook(1),
    }
    for fn in PERCOLATION_FUNCTIONS:
        hook = trial_hooks.get(fn, _trials_hook()) if fn in TRIAL_FUNCTIONS else None
        targets.append(Target(f"percolation.{fn}", percolation, fn, hook))
    targets += [
        Target("sampling.sample_points", sampling, "sample_points", points_hook),
        Target("sampling.sample_lines", sampling, "sample_lines"),
        Target("sampling.phi_ball", sampling, "phi_ball", phi_ball_hook),
        Target("sampling.RngStream.generator", sampling.RngStream, "generator"),
    ]
    for fn in GEOMETRY_FUNCTIONS:
        targets.append(Target(f"geometry.{fn}", geometry, fn, _geometry_hook(fn, elements[fn])))
    targets += [
        Target("analytic.alpha_occupied", analytic, "alpha_occupied", alpha_hook),
        Target("analytic.lambda_gc", analytic, "lambda_gc", lambda_gc_hook),
        Target("analytic.area_crescent", analytic, "area_crescent"),
        Target("analytic.hitting_cdf", analytic, "hitting_cdf"),
    ]
    scan = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hyperc" or name.startswith("hyperc."))]
    return targets, scan


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when nothing was counted (den == 0)."""
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, traced_wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass that ran ``traced_wall_s``."""
    selfs = tr.self_times()
    by_layer = layer_self_times(selfs)
    totals = tr.totals()
    c = tr.counters
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
    out["trace.hook_s"] = by_layer.get("trace", 0.0)
    out["trace.unattributed_s"] = traced_wall_s - tr.root_seconds()
    out["trace.spans"] = float(len(tr.spans))

    rng_calls, _ = totals.get("sampling.RngStream.generator", (0, 0.0))
    out["sampling.rng_streams"] = float(rng_calls)
    out["sampling.rng_s"] = selfs.get("sampling.RngStream.generator", 0.0)
    out["sampling.points_drawn_per_trial"] = _ratio(
        c["sampling.f_points_drawn"], c["sampling.f_trials_points"]
    )
    out["sampling.points_used_frac"] = _ratio(
        c["sampling.f_points_used"], c["sampling.f_points_checked"]
    )
    out["sampling.lines_used_frac"] = _ratio(
        c["sampling.f_lines_used_sum"], c["sampling.f_line_draws"]
    )

    for fn in GEOMETRY_FUNCTIONS:
        calls, seconds = totals.get(f"geometry.{fn}", (0, 0.0))
        out[f"geometry.{fn}_s"] = seconds
        out[f"geometry.{fn}_calls"] = float(calls)
        out[f"geometry.{fn}_elements"] = c[f"geometry.{fn}_elements"]
        out[f"geometry.{fn}_bytes_computed"] = c[f"geometry.{fn}_bytes_computed"]

    perc_s = sum(totals.get(f"percolation.{fn}", (0, 0.0))[1] for fn in TRIAL_FUNCTIONS)
    out["percolation.trials"] = c["percolation.trials"]
    out["percolation.us_per_trial"] = 1e6 * _ratio(perc_s, c["percolation.trials"])
    out["percolation.segment_pairs"] = c["percolation.segment_pairs"]

    out["analytic.solves"] = c["analytic.solves"]
    out["analytic.area_crescent_calls"] = float(totals.get("analytic.area_crescent", (0, 0))[0])
    out["analytic.bisection_iters"] = c["analytic.bisection_iters"]
    out["analytic.max_residual"] = tr.maxima.get("analytic.max_residual", 0.0)
    out["analytic.solver_errors"] = float(
        sum(n for key, n in tr.errors.items() if key.endswith(":SolverError"))
    )
    return out
