"""Command-line front end: experiments, persistence, and rendering.

Every randomized subcommand resolves a master seed (flag, then the
HYPERC_SEED environment variable, then a fresh one printed to stderr)
and echoes the fully resolved configuration in its JSON summary, so
every published number can be reproduced.  Results are independent of
--workers by construction: trials are keyed by (seed, trial index) and
reduced with order-independent sums.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
import time

import numpy as np

from . import __version__, analytic, render
from .geometry import HPoint, ORIGIN
from .percolation import (
    detect_line_through_ball,
    estimate_f,
    estimate_S_cdf,
    sandwich_AQ,
    surviving_directions,
)
from .sampling import (
    ModelParams,
    RngStream,
    WindowError,
    phi_ball,
    phi_ball_quadrature,
    phi_segment,
    phi_segment_quadrature,
    phi_separating,
    phi_separating_quadrature,
    sample_lines,
    sample_points,
)
from .analytic import SolverError
from .treecover import build_tree, check_separation, estimate_R_prime, reduced_words

USAGE_ERROR = 2
SOLVER_ERROR = 3

_SUBCOMMANDS = (
    "alpha",
    "critical",
    "simulate-f",
    "rays",
    "detect-line",
    "s-dist",
    "grassmann",
    "lrp",
    "tree",
    "render",
)


def _read_config(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _coerce(text: str):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _resolve(args: argparse.Namespace, config: dict, defaults: dict) -> dict:
    """CLI flag > config file entry > builtin default."""
    resolved = {}
    for key, default in defaults.items():
        value = getattr(args, key, None)
        if value is None and key in config:
            value = _coerce(config[key])
        if value is None:
            value = default
        resolved[key] = value
    return resolved


def _resolve_seed(cfg: dict) -> int:
    if cfg.get("seed") is not None:
        return int(cfg["seed"])
    env = os.environ.get("HYPERC_SEED")
    if env:
        return int(env)
    seed = secrets.randbits(48)
    print(f"hyperc: generated seed {seed}", file=sys.stderr)
    return seed


def _float_list(text) -> list[float]:
    if isinstance(text, (int, float)):
        return [float(text)]
    return [float(tok) for tok in str(text).split(",") if tok.strip()]


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _emit_json(summary: dict, out_path) -> None:
    text = json.dumps(_json_ready(summary), indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(header: list[str], rows: list[tuple], path) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _summary(command: str, cfg: dict, results: dict) -> dict:
    return {
        "command": command,
        "config": cfg,
        "results": results,
        "provenance": {"seed": cfg.get("seed"), "version": __version__},
    }


def _r_grid(cfg: dict) -> list[float]:
    if cfg.get("r_values"):
        return _float_list(cfg["r_values"])
    rmin, rmax, rstep = cfg["rmin"], cfg["rmax"], cfg["rstep"]
    count = int(round((rmax - rmin) / rstep)) + 1
    return [rmin + k * rstep for k in range(count)]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_alpha(args, config):
    defaults = {"model": "vacant", "lam": None, "R": 1.0, "out": None}
    cfg = _resolve(args, config, defaults)
    if cfg["lam"] is None:
        raise ValueError("--lambda is required")
    model = cfg["model"]
    if model == "vacant":
        value = analytic.alpha_vacant(ModelParams(cfg["lam"], cfg["R"]))
        results = {"alpha": value, "formula": "2*lambda*sinh(R)"}
    elif model == "occupied":
        res = analytic.alpha_occupied(ModelParams(cfg["lam"], cfg["R"]))
        results = {"alpha": res.alpha, "residual": res.residual, "iterations": res.iterations}
    elif model == "lines":
        results = {"alpha": cfg["lam"], "formula": "f(r) = exp(-lambda*r)"}
    else:
        raise ValueError(f"unknown model {model!r}")
    _emit_json(_summary("alpha", cfg, results), cfg["out"])
    return 0


def _cmd_critical(args, config):
    defaults = {"model": "occupied", "R": 1.0, "out": None}
    cfg = _resolve(args, config, defaults)
    model = cfg["model"]
    if model == "vacant":
        results = {"lambda_critical": analytic.lambda_gv(cfg["R"]), "formula": "1/(2*sinh(R))"}
    elif model == "occupied":
        lam = analytic.lambda_gc(cfg["R"])
        check = analytic.alpha_occupied(ModelParams(lam, cfg["R"]))
        results = {"lambda_critical": lam, "alpha_residual": abs(check.alpha - 1.0)}
    elif model == "lines":
        results = {"lambda_critical": 1.0, "formula": "exponent 1 at lambda = 1"}
    else:
        raise ValueError(f"unknown model {model!r}")
    _emit_json(_summary("critical", cfg, results), cfg["out"])
    return 0


def _cmd_simulate_f(args, config):
    defaults = {
        "model": "vacant",
        "lam": None,
        "R": 1.0,
        "rmin": 1.0,
        "rmax": 6.0,
        "rstep": 1.0,
        "r_values": None,
        "trials": 10000,
        "seed": None,
        "workers": 1,
        "csv": None,
        "out": None,
    }
    cfg = _resolve(args, config, defaults)
    if cfg["lam"] is None:
        raise ValueError("--lambda is required")
    cfg["seed"] = _resolve_seed(cfg)
    rs = _r_grid(cfg)
    model = cfg["model"]
    params = ModelParams(cfg["lam"], None if model == "lines" else cfg["R"])
    result = estimate_f(
        model, params, rs, int(cfg["trials"]), RngStream(cfg["seed"]), workers=int(cfg["workers"])
    )
    if model == "vacant":
        alpha_ref = analytic.alpha_vacant(params)
    elif model == "lines":
        alpha_ref = cfg["lam"]
    else:
        alpha_ref = analytic.alpha_occupied(params).alpha
    if cfg["csv"]:
        rows = [
            (float(r), float(f), float(hw), result.trials)
            for r, f, hw in zip(result.r_values, result.estimates, result.half_widths)
        ]
        _emit_csv(["r", "f_hat", "ci95", "trials"], rows, cfg["csv"])
    results = {
        "r": list(result.r_values),
        "f_hat": list(result.estimates),
        "ci95": list(result.half_widths),
        "alpha_hat": result.alpha_hat,
        "alpha_stderr": result.alpha_stderr,
        "alpha_analytic": alpha_ref,
    }
    _emit_json(_summary("simulate-f", cfg, results), cfg["out"])
    return 0


def _cmd_rays(args, config):
    defaults = {
        "model": "vacant",
        "lam": None,
        "R": 1.0,
        "r": 5.0,
        "directions": 64,
        "samples": 200,
        "seed": None,
        "out": None,
    }
    cfg = _resolve(args, config, defaults)
    if cfg["lam"] is None:
        raise ValueError("--lambda is required")
    cfg["seed"] = _resolve_seed(cfg)
    params = ModelParams(cfg["lam"], None if cfg["model"] == "lines" else cfg["R"])
    counts = []
    nonempty = 0
    for i in range(int(cfg["samples"])):
        rs = surviving_directions(
            cfg["model"], params, cfg["r"], int(cfg["directions"]), RngStream(cfg["seed"], i + 1)
        )
        counts.append(len(rs.surviving))
        nonempty += bool(rs.surviving)
    results = {
        "mean_survivors": float(np.mean(counts)),
        "survival_probability": nonempty / int(cfg["samples"]),
        "samples": int(cfg["samples"]),
    }
    _emit_json(_summary("rays", cfg, results), cfg["out"])
    return 0


def _cmd_detect_line(args, config):
    defaults = {
        "model": "lines",
        "lam": None,
        "R": 1.0,
        "s": 0.1,
        "r": 10.0,
        "directions": 360,
        "samples": 200,
        "seed": None,
        "out": None,
    }
    cfg = _resolve(args, config, defaults)
    if cfg["lam"] is None:
        raise ValueError("--lambda is required")
    cfg["seed"] = _resolve_seed(cfg)
    params = ModelParams(cfg["lam"], None if cfg["model"] == "lines" else cfg["R"])
    found = 0
    for i in range(int(cfg["samples"])):
        det = detect_line_through_ball(
            cfg["model"], params, cfg["s"], cfg["r"], RngStream(cfg["seed"], i + 1),
            n_directions=int(cfg["directions"]),
        )
        found += det.found
    results = {"detections": found, "frequency": found / int(cfg["samples"])}
    _emit_json(_summary("detect-line", cfg, results), cfg["out"])
    return 0


def _cmd_s_dist(args, config):
    defaults = {
        "lam": None,
        "R": 1.0,
        "trials": 10000,
        "grid": 100,
        "seed": None,
        "csv": None,
        "out": None,
    }
    cfg = _resolve(args, config, defaults)
    if cfg["lam"] is None:
        raise ValueError("--lambda is required")
    cfg["seed"] = _resolve_seed(cfg)
    params = ModelParams(cfg["lam"], cfg["R"])
    result = estimate_S_cdf(params, int(cfg["trials"]), RngStream(cfg["seed"]))
    ts = np.linspace(0.0, 2.0 * cfg["R"], int(cfg["grid"]) + 1)[1:]
    emp = result.empirical_cdf(ts)
    ana = np.asarray([analytic.hitting_cdf(t, params) for t in ts])
    if cfg["csv"]:
        rows = [(float(t), float(e), float(a)) for t, e, a in zip(ts, emp, ana)]
        _emit_csv(["t", "G_empirical", "G_analytic"], rows, cfg["csv"])
    results = {
        "sup_distance": float(np.abs(emp - ana).max()),
        "neg_inf_mass": result.neg_inf_mass,
        "neg_inf_mass_analytic": float(
            math.exp(-cfg["lam"] * 2.0 * math.pi * (math.cosh(cfg["R"]) - 1.0))
        ),
    }
    _emit_json(_summary("s-dist", cfg, results), cfg["out"])
    return 0


def _cmd_grassmann(args, config):
    defaults = {
        "r_values": "0.5,1,2",
        "theta_values": "0.3,0.7853981633974483,1.5707963267948966,2.0,2.8",
        "rho": 1.0,
        "mc_lambda": None,
        "mc_trials": 10000,
        "mc_rmax": 4.0,
        "seed": None,
        "out": None,
    }
    cfg = _resolve(args, config, defaults)
    seg = [
        {"r": r, "closed_form": phi_segment(r), "quadrature": phi_segment_quadrature(r)}
        for r in _float_list(cfg["r_values"])
    ]
    sep = [
        {
            "theta": th,
            "closed_form": phi_separating(th),
            "quadrature": phi_separating_quadrature(th),
        }
        for th in _float_list(cfg["theta_values"])
    ]
    rho = cfg["rho"]
    ball = {
        "rho": rho,
        "closed_form": math.pi * math.sinh(rho),
        "quadrature": phi_ball_quadrature(rho),
    }
    results = {"segment_measure": seg, "separating_measure": sep, "ball_measure": ball}
    if cfg["mc_lambda"] is not None:
        cfg["seed"] = _resolve_seed(cfg)
        mc = []
        rs = [float(k) for k in range(1, int(cfg["mc_rmax"]) + 1)]
        for lam in _float_list(cfg["mc_lambda"]):
            est = estimate_f(
                "lines", ModelParams(lam), rs, int(cfg["mc_trials"]), RngStream(cfg["seed"])
            )
            mc.append(
                {
                    "lambda": lam,
                    "r": list(est.r_values),
                    "f_hat": list(est.estimates),
                    "f_exact": [analytic.f_grassmann(r, lam) for r in est.r_values],
                    "alpha_hat": est.alpha_hat,
                }
            )
        results["monte_carlo"] = mc
    _emit_json(_summary("grassmann", cfg, results), cfg["out"])
    return 0


def _cmd_lrp(args, config):
    defaults = {"lam": 1.0, "c": 1.0, "nmin": 2, "nmax": 200, "csv": None, "out": None}
    cfg = _resolve(args, config, defaults)
    rows = []
    for n in range(int(cfg["nmin"]), int(cfg["nmax"]) + 1):
        measure = analytic.lrp_edge_measure(0, n)
        prob = analytic.lrp_edge_prob(0, n, cfg["lam"], cfg["c"])
        rows.append((n, measure, prob, n * n * prob))
    if cfg["csv"]:
        _emit_csv(["n", "measure", "prob", "n2_times_prob"], rows, cfg["csv"])
    results = {
        "n": [r[0] for r in rows],
        "measure": [r[1] for r in rows],
        "prob": [r[2] for r in rows],
        "n2_times_prob": [r[3] for r in rows],
    }
    _emit_json(_summary("lrp", cfg, results), cfg["out"])
    return 0


def _cmd_tree(args, config):
    defaults = {
        "arc_length": 1.0,
        "depth": 8,
        "paths": 64,
        "check_separation": None,
        "svg": None,
        "seed": None,
        "out": None,
    }
    cfg = _resolve(args, config, defaults)
    cfg["seed"] = _resolve_seed(cfg)
    tree = build_tree(cfg["arc_length"], int(cfg["depth"]))
    results = {
        "vertices": len(tree.vertices),
        "edge_length": tree.edge_length(),
    }
    if cfg["check_separation"]:
        ok = all(check_separation(tree, w) for w in reduced_words(int(cfg["depth"])))
        results["all_separated"] = ok
    est = estimate_R_prime(tree, int(cfg["paths"]), RngStream(cfg["seed"]))
    results["r_prime"] = est.line_to_vertices
    results["vertex_to_line"] = est.vertex_to_line
    if cfg["svg"]:
        render.write_svg(render.render_tree(tree), cfg["svg"])
        results["svg"] = cfg["svg"]
    _emit_json(_summary("tree", cfg, results), cfg["out"])
    return 0


def _cmd_render(args, config):
    defaults = {
        "model": "lines",
        "lam": 1.0,
        "R": 1.0,
        "rho": 5.0,
        "window": 3.0,
        "arc_length": 1.0,
        "depth": 6,
        "seed": None,
        "out": "scene.svg",
    }
    cfg = _resolve(args, config, defaults)
    cfg["seed"] = _resolve_seed(cfg)
    stream = RngStream(cfg["seed"])
    model = cfg["model"]
    if model == "lines":
        sample = sample_lines(cfg["lam"], cfg["rho"], stream)
        content = render.render_lines(sample)
    elif model == "points":
        sample = sample_points(ModelParams(cfg["lam"], cfg["R"]), ORIGIN, cfg["window"], stream)
        content = render.render_boolean(sample)
    elif model == "tree":
        content = render.render_tree(build_tree(cfg["arc_length"], int(cfg["depth"])))
    else:
        raise ValueError(f"unknown render model {model!r}")
    render.write_svg(content, cfg["out"])
    print(f"wrote {cfg['out']}", file=sys.stderr)
    return 0


_HANDLERS = {
    "alpha": _cmd_alpha,
    "critical": _cmd_critical,
    "simulate-f": _cmd_simulate_f,
    "rays": _cmd_rays,
    "detect-line": _cmd_detect_line,
    "s-dist": _cmd_s_dist,
    "grassmann": _cmd_grassmann,
    "lrp": _cmd_lrp,
    "tree": _cmd_tree,
    "render": _cmd_render,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperc",
        description="Geodesic percolation in the hyperbolic plane: "
        "closed forms, critical intensities, and Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, options):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key=value config file")
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
        return p

    f = lambda **kw: dict(type=float, default=None, **kw)
    i = lambda **kw: dict(type=int, default=None, **kw)
    s = lambda **kw: dict(default=None, **kw)

    model_opt = (("--model",), s(help="vacant | occupied | lines"))
    lam_opt = (("--lambda",), f(dest="lam", help="process intensity"))
    R_opt = (("--R",), f(help="ball radius of the Boolean model"))
    seed_opt = (("--seed",), i(help="master seed (fallback: HYPERC_SEED)"))
    out_opt = (("--out",), s(help="JSON summary path (default: stdout)"))
    csv_opt = (("--csv",), s(help="CSV table path"))

    add("alpha", "decay exponent of f(r)", [model_opt, lam_opt, R_opt, out_opt])
    add("critical", "critical intensity for geodesic percolation", [model_opt, R_opt, out_opt])
    add(
        "simulate-f",
        "Monte Carlo estimate of f(r) with a fitted exponent",
        [
            model_opt,
            lam_opt,
            R_opt,
            (("--rmin",), f()),
            (("--rmax",), f()),
            (("--rstep",), f()),
            (("--r-values",), s(dest="r_values", help="comma list overriding the grid")),
            (("--trials",), i()),
            (("--workers",), i(help="parallel workers; output is independent of this")),
            seed_opt,
            csv_opt,
            out_opt,
        ],
    )
    add(
        "rays",
        "ray survival from the origin on a direction grid",
        [
            model_opt,
            lam_opt,
            R_opt,
            (("--r",), f(help="ray length")),
            (("--directions",), i()),
            (("--samples",), i()),
            seed_opt,
            out_opt,
        ],
    )
    add(
        "detect-line",
        "frequency of certified chords through a small ball",
        [
            model_opt,
            lam_opt,
            R_opt,
            (("--s",), f(help="ball radius for the chord certificate")),
            (("--r",), f(help="ray length")),
            (("--directions",), i()),
            (("--samples",), i()),
            seed_opt,
            out_opt,
        ],
    )
    add(
        "s-dist",
        "empirical law of the first coverage gap against the analytic CDF",
        [
            lam_opt,
            R_opt,
            (("--trials",), i()),
            (("--grid",), i(help="comparison grid size")),
            seed_opt,
            csv_opt,
            out_opt,
        ],
    )
    add(
        "grassmann",
        "line-measure normalization checks (closed forms vs quadrature)",
        [
            (("--r-values",), s(dest="r_values")),
            (("--theta-values",), s(dest="theta_values")),
            (("--rho",), f()),
            (("--mc-lambda",), s(dest="mc_lambda", help="comma list; runs the MC check")),
            (("--mc-trials",), i(dest="mc_trials")),
            (("--mc-rmax",), f(dest="mc_rmax")),
            seed_opt,
            out_opt,
        ],
    )
    add(
        "lrp",
        "long-range percolation edge law on Z",
        [
            lam_opt,
            (("--c",), f(help="edge retention constant")),
            (("--nmin",), i()),
            (("--nmax",), i()),
            csv_opt,
            out_opt,
        ],
    )
    add(
        "tree",
        "reflection-group tree: separation checks and tube constants",
        [
            (("--arc-length",), f(dest="arc_length")),
            (("--depth",), i()),
            (("--paths",), i()),
            (("--check-separation",), dict(action="store_const", const=True, default=None)),
            (("--svg",), s(help="render the tree to this SVG path")),
            seed_opt,
            out_opt,
        ],
    )
    add(
        "render",
        "SVG of a realization in the Poincare disk",
        [
            (("--model",), s(help="points | lines | tree")),
            lam_opt,
            R_opt,
            (("--rho",), f(help="line-process reference radius")),
            (("--window",), f(help="point-process window radius")),
            (("--arc-length",), f(dest="arc_length")),
            (("--depth",), i()),
            seed_opt,
            (("--out",), s(help="output SVG path")),
        ],
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = _read_config(args.config) if args.config else {}
    started = time.monotonic()
    try:
        code = _HANDLERS[args.command](args, config)
    except SolverError as exc:
        print(f"hyperc: solver failure: {exc}", file=sys.stderr)
        return SOLVER_ERROR
    except (WindowError, ValueError, OSError) as exc:
        print(f"hyperc: {exc}", file=sys.stderr)
        return USAGE_ERROR
    # wall time goes to stderr, never into the summary files, so reruns
    # with identical seeds stay byte-identical
    print(f"hyperc: {args.command} finished in {time.monotonic() - started:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
