"""Command-line front end: experiments, persistence, and rendering.

Each subcommand is declared once, in the ``_COMMANDS`` table, as its
handler, its help text and its options.  Each ``_Option`` gives the
flag, the built-in default, the domain, the help text and, where it
differs from the flag, the config key.  The domains live in the table:
each is a type and a range, and no handler checks a single option's
range.  The parser is built from that table, and ``_resolve`` reads it
to fill each option from the flag, then the ``--config`` file (keys are
the option keys, such as ``lam`` or ``r_values``), then the default,
and refuses a value outside its domain, or a ``_REQUIRED`` default
still unset, under every model and scene, before any handler runs.  A
handler takes the resolved configuration and returns its results,
which ``main`` writes as the JSON summary; ``render`` writes its SVG
itself and returns None.

Every randomized subcommand resolves a master seed (flag, then the
HYPERC_SEED environment variable, then a fresh one printed to stderr)
and echoes the fully resolved configuration in its JSON summary, so
every published number can be reproduced.  Results are independent of
--workers by construction: each trial draws from its own generator,
keyed by (seed, stream, trial index), and yields an exact containment
threshold, whatever block or process it ran in.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
import time
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, analytic, render
from .geometry import ball_area
from .percolation import (
    MODELS,
    detect_line_through_ball,
    estimate_f,
    estimate_S_cdf,
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
from .treecover import build_tree, check_separation, reduced_words, tube_constants

USAGE_ERROR = 2
SOLVER_ERROR = 3

_REQUIRED = object()  # default of an option that must come from the flag or the config file


class _Domain(NamedTuple):
    """The values of an option: ``type`` parses its text (None keeps the
    text, ``bool`` makes a switch), and a parsed value must pass
    ``holds``, which ``text`` describes."""

    type: type | None
    holds: Callable[[object], bool]
    text: str


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


_TEXT = _Domain(None, lambda text: True, "text")
_SWITCH = _Domain(bool, lambda on: True, "true or false")
_NONNEGATIVE = _Domain(float, lambda x: 0.0 <= x < math.inf, "nonnegative and finite")
_POSITIVE = _Domain(float, lambda x: 0.0 < x < math.inf, "positive and finite")
_COUNT = _Domain(int, lambda n: n >= 0, "at least 0")
_POSITIVE_COUNT = _Domain(int, lambda n: n >= 1, "at least 1")
_NONNEGATIVE_LIST = _Domain(None, lambda text: all(map(_NONNEGATIVE.holds, _float_list(text))),
                            "a comma list of nonnegative finite numbers")


class _Option(NamedTuple):
    """One flag of a subcommand and its domain."""

    flag: str
    default: object = None
    domain: _Domain = _TEXT
    help: str | None = None
    dest: str | None = None

    @property
    def key(self) -> str:
        return self.dest or self.flag.lstrip("-").replace("-", "_")


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


def _from_config(opt: _Option, text: str):
    """A config-file value converted with the option's declared type, as
    its flag would be; a switch takes true or false."""
    if opt.domain.type is None:
        return text
    if opt.domain is _SWITCH:
        if text.lower() not in ("true", "false"):
            raise ValueError(f"config key {opt.key} must be true or false, got {text!r}")
        return text.lower() == "true"
    return opt.domain.type(text)


def _resolve(args: argparse.Namespace, config: dict, options) -> dict:
    """CLI flag > config file entry > builtin default; a config key that
    no option of the subcommand reads, or a value outside its option's
    domain, is an error."""
    unknown = sorted(set(config) - {opt.key for opt in options})
    if unknown:
        raise ValueError(f"config keys not read by {args.command}: {', '.join(unknown)}")
    resolved = {}
    for opt in options:
        value = getattr(args, opt.key)
        if value is None and opt.key in config:
            value = _from_config(opt, config[opt.key])
        if value is None:
            value = opt.default
        if value is _REQUIRED:
            raise ValueError(f"{opt.flag} is required")
        if value is not None and not opt.domain.holds(value):
            raise ValueError(f"{opt.flag} must be {opt.domain.text}")
        resolved[opt.key] = value
    return resolved


def _resolve_seed(cfg: dict) -> int:
    if cfg.get("seed") is not None:
        return cfg["seed"]
    env = os.environ.get("HYPERC_SEED")
    if env:
        return int(env)
    seed = secrets.randbits(48)
    print(f"hyperc: generated seed {seed}", file=sys.stderr)
    return seed


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)  # "inf", "-inf" or "nan": JSON has no literal for them
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


def _params(cfg: dict) -> ModelParams:
    """The model parameters of a run: the lines model has no ball radius."""
    return ModelParams(cfg["lam"], None if cfg.get("model") == "lines" else cfg["R"])


def _r_grid(cfg: dict) -> list[float]:
    if cfg.get("r_values"):
        return _float_list(cfg["r_values"])
    rmin, rmax, rstep = cfg["rmin"], cfg["rmax"], cfg["rstep"]
    if rmax < rmin:
        raise ValueError("rmax must be at least rmin")
    count = int(round((rmax - rmin) / rstep)) + 1
    return [rmin + k * rstep for k in range(count)]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_alpha(cfg):
    model = cfg["model"]
    if model == "vacant":
        value = analytic.alpha_vacant(_params(cfg))
        return {"alpha": value, "formula": "2*lambda*sinh(R)"}
    if model == "occupied":
        res = analytic.alpha_occupied(_params(cfg))
        return {"alpha": res.alpha, "residual": res.residual, "iterations": res.iterations}
    return {"alpha": _params(cfg).intensity, "formula": "f(r) = exp(-lambda*r)"}


def _cmd_critical(cfg):
    model = cfg["model"]
    if model == "vacant":
        return {"lambda_critical": analytic.lambda_gv(cfg["R"]), "formula": "1/(2*sinh(R))"}
    if model == "occupied":
        lam = analytic.lambda_gc(cfg["R"])
        check = analytic.alpha_occupied(ModelParams(lam, cfg["R"]))
        return {"lambda_critical": lam, "alpha_residual": abs(check.alpha - 1.0)}
    return {"lambda_critical": 1.0, "formula": "exponent 1 at lambda = 1"}


def _cmd_simulate_f(cfg):
    cfg["seed"] = _resolve_seed(cfg)
    rs = _r_grid(cfg)
    result = estimate_f(
        cfg["model"], _params(cfg), rs, cfg["trials"], RngStream(cfg["seed"]),
        workers=cfg["workers"],
    )
    alpha_ref = _cmd_alpha(cfg)["alpha"]
    if cfg["csv"]:
        rows = [
            (float(r), float(f), float(hw), result.trials)
            for r, f, hw in zip(result.r_values, result.estimates, result.half_widths)
        ]
        _emit_csv(["r", "f_hat", "ci95", "trials"], rows, cfg["csv"])
    return {
        "r": list(result.r_values),
        "f_hat": list(result.estimates),
        "ci95": list(result.half_widths),
        "alpha_hat": result.alpha_hat,
        "alpha_stderr": result.alpha_stderr,
        "alpha_analytic": alpha_ref,
    }


def _cmd_rays(cfg):
    cfg["seed"] = _resolve_seed(cfg)
    counts = [len(rs.surviving) for rs in surviving_directions(
        cfg["model"], _params(cfg), cfg["r"], cfg["directions"], cfg["samples"],
        RngStream(cfg["seed"]))]
    nonempty = sum(count > 0 for count in counts)
    return {
        "mean_survivors": float(np.mean(counts)),
        "survival_probability": nonempty / cfg["samples"],
        "samples": cfg["samples"],
    }


def _cmd_detect_line(cfg):
    cfg["seed"] = _resolve_seed(cfg)
    found = sum(det.found for det in detect_line_through_ball(
        cfg["model"], _params(cfg), cfg["s"], cfg["r"], cfg["samples"], RngStream(cfg["seed"]),
        n_directions=cfg["directions"]))
    return {"detections": found, "frequency": found / cfg["samples"]}


def _cmd_s_dist(cfg):
    cfg["seed"] = _resolve_seed(cfg)
    params = _params(cfg)
    result = estimate_S_cdf(params, cfg["trials"], RngStream(cfg["seed"]))
    ts = np.linspace(0.0, 2.0 * cfg["R"], cfg["grid"] + 1)[1:]
    emp = result.empirical_cdf(ts)
    ana = np.asarray([analytic.hitting_cdf(t, params) for t in ts])
    if cfg["csv"]:
        rows = [(float(t), float(e), float(a)) for t, e, a in zip(ts, emp, ana)]
        _emit_csv(["t", "G_empirical", "G_analytic"], rows, cfg["csv"])
    return {
        "sup_distance": float(np.abs(emp - ana).max()),
        "neg_inf_mass": result.neg_inf_mass,
        "neg_inf_mass_analytic": math.exp(-cfg["lam"] * ball_area(cfg["R"])),
    }


def _cmd_grassmann(cfg):
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
        "closed_form": phi_ball(rho),
        "quadrature": phi_ball_quadrature(rho),
    }
    results = {"segment_measure": seg, "separating_measure": sep, "ball_measure": ball}
    if cfg["mc_lambda"] is not None:
        cfg["seed"] = _resolve_seed(cfg)
        mc = []
        rs = [float(k) for k in range(1, int(cfg["mc_rmax"]) + 1)]
        for lam in _float_list(cfg["mc_lambda"]):
            est = estimate_f(
                "lines", ModelParams(lam), rs, cfg["mc_trials"], RngStream(cfg["seed"])
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
    return results


def _cmd_lrp(cfg):
    if cfg["nmax"] < cfg["nmin"]:
        raise ValueError("nmax must be at least nmin")
    rows = []
    for n in range(cfg["nmin"], cfg["nmax"] + 1):
        measure = analytic.lrp_edge_measure(0, n)
        prob = analytic.lrp_edge_prob(0, n, cfg["lam"], cfg["c"])
        rows.append((n, measure, prob, n * n * prob))
    if cfg["csv"]:
        _emit_csv(["n", "measure", "prob", "n2_times_prob"], rows, cfg["csv"])
    return {
        "n": [r[0] for r in rows],
        "measure": [r[1] for r in rows],
        "prob": [r[2] for r in rows],
        "n2_times_prob": [r[3] for r in rows],
    }


def _cmd_tree(cfg):
    tree = build_tree(cfg["arc_length"], cfg["depth"])
    results = {
        "vertices": len(tree.vertices),
        "edge_length": tree.edge_length(),
    }
    if cfg["check_separation"]:
        ok = all(check_separation(tree, w) for w in reduced_words(cfg["depth"]))
        results["all_separated"] = ok
    results["vertex_to_line"], results["r_prime"] = tube_constants(cfg["arc_length"])
    if cfg["svg"]:
        render.write_svg(render.render_tree(tree), cfg["svg"])
        results["svg"] = cfg["svg"]
    return results


def _cmd_render(cfg):
    cfg["seed"] = _resolve_seed(cfg)
    stream = RngStream(cfg["seed"])
    model = cfg["model"]
    if model == "lines":
        sample = sample_lines(cfg["lam"], cfg["rho"], stream.generator())
        content = render.render_lines(sample)
    elif model == "points":
        sample = sample_points(_params(cfg), cfg["window"], stream.generator())
        content = render.render_boolean(sample)
    else:
        content = render.render_tree(build_tree(cfg["arc_length"], cfg["depth"]))
    render.write_svg(content, cfg["out"])
    print(f"wrote {cfg['out']}", file=sys.stderr)


# ---------------------------------------------------------------------------
# option table


def _model(default, names=MODELS):
    choices = _Domain(None, names.__contains__, "one of " + ", ".join(names))
    return _Option("--model", default, choices, " | ".join(names))


def _lam(default=_REQUIRED):
    return _Option("--lambda", default, _NONNEGATIVE, "process intensity", "lam")


_R = _Option("--R", 1.0, _POSITIVE, "ball radius of the Boolean model")
_SEED = _Option("--seed", None, _COUNT, "master seed (fallback: HYPERC_SEED)")
_OUT = _Option("--out", None, _TEXT, "JSON summary path (default: stdout)")
_CSV = _Option("--csv", None, _TEXT, "CSV table path")

_COMMANDS = {
    "alpha": (
        _cmd_alpha,
        "decay exponent of f(r)",
        [_model("vacant"), _lam(), _R, _OUT],
    ),
    "critical": (
        _cmd_critical,
        "critical intensity for geodesic percolation",
        [_model("occupied"), _R, _OUT],
    ),
    "simulate-f": (
        _cmd_simulate_f,
        "Monte Carlo estimate of f(r) and of its decay rate on [rmin, rmax]",
        [
            _model("vacant"),
            _lam(),
            _R,
            _Option("--rmin", 1.0, _NONNEGATIVE),
            _Option("--rmax", 6.0, _NONNEGATIVE),
            _Option("--rstep", 1.0, _POSITIVE),
            _Option("--r-values", None, _NONNEGATIVE_LIST, "comma list overriding the grid"),
            _Option("--trials", 10000, _POSITIVE_COUNT),
            _Option(
                "--workers",
                1,
                _POSITIVE_COUNT,
                "worker processes, from one pool kept for the process's later runs and "
                "started only when trials span more than one block; output is "
                "independent of this",
            ),
            _SEED,
            _CSV,
            _OUT,
        ],
    ),
    "rays": (
        _cmd_rays,
        "ray survival from the origin on a direction grid",
        [
            _model("vacant"),
            _lam(),
            _R,
            _Option("--r", 5.0, _POSITIVE, "ray length"),
            _Option("--directions", 64, _POSITIVE_COUNT),
            _Option("--samples", 200, _POSITIVE_COUNT),
            _SEED,
            _OUT,
        ],
    ),
    "detect-line": (
        _cmd_detect_line,
        "frequency of certified chords through a small ball",
        [
            _model("lines"),
            _lam(),
            _R,
            _Option("--s", 0.1, _POSITIVE, "ball radius for the chord certificate"),
            _Option("--r", 10.0, _POSITIVE, "ray length"),
            _Option("--directions", 360, _POSITIVE_COUNT),
            _Option("--samples", 200, _POSITIVE_COUNT),
            _SEED,
            _OUT,
        ],
    ),
    "s-dist": (
        _cmd_s_dist,
        "empirical law of the first coverage gap against the analytic CDF",
        [
            _lam(),
            _R,
            _Option("--trials", 10000, _POSITIVE_COUNT),
            _Option("--grid", 100, _POSITIVE_COUNT, "comparison grid size"),
            _SEED,
            _CSV,
            _OUT,
        ],
    ),
    "grassmann": (
        _cmd_grassmann,
        "line-measure normalization checks (closed forms vs quadrature)",
        [
            _Option("--r-values", "0.5,1,2", _NONNEGATIVE_LIST),
            _Option("--theta-values", "0.3,0.7853981633974483,1.5707963267948966,2.0,2.8",
                    _NONNEGATIVE_LIST),
            _Option("--rho", 1.0, _POSITIVE),
            _Option("--mc-lambda", None, _NONNEGATIVE_LIST, "comma list; runs the MC check"),
            _Option("--mc-trials", 10000, _POSITIVE_COUNT),
            _Option("--mc-rmax", 4.0, _NONNEGATIVE),
            _SEED,
            _OUT,
        ],
    ),
    "lrp": (
        _cmd_lrp,
        "long-range percolation edge law on Z",
        [
            _lam(1.0),
            _Option("--c", 1.0, _NONNEGATIVE, "edge retention constant"),
            _Option("--nmin", 2, _POSITIVE_COUNT),
            _Option("--nmax", 200, _POSITIVE_COUNT),
            _CSV,
            _OUT,
        ],
    ),
    "tree": (
        _cmd_tree,
        "reflection-group tree: separation checks and tube constants",
        [
            _Option("--arc-length", 1.0, _POSITIVE,
                    "boundary arc of each generator line, in (0, 2 pi / 3); it alone "
                    "sets the closed-form tube constants"),
            _Option("--depth", 8, _COUNT, "word length of the vertices built, checked and drawn"),
            _Option("--check-separation", None, _SWITCH),
            _Option("--svg", None, _TEXT, "render the tree to this SVG path"),
            _OUT,
        ],
    ),
    "render": (
        _cmd_render,
        "SVG of a realization in the Poincare disk",
        [
            _model("lines", ("points", "lines", "tree")),
            _lam(1.0),
            _R,
            _Option("--rho", 5.0, _POSITIVE, "line-process reference radius"),
            _Option("--window", 3.0, _POSITIVE, "point-process window radius"),
            _Option("--arc-length", 1.0, _POSITIVE),
            _Option("--depth", 6, _COUNT),
            _SEED,
            _Option("--out", "scene.svg", _TEXT, "output SVG path"),
        ],
    ),
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process; parsing
    does not change it."""
    parser = argparse.ArgumentParser(
        prog="hyperc",
        description="Geodesic percolation in the hyperbolic plane: "
        "closed forms, critical intensities, and Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key=value config file")
        for opt in options:
            # every flag parses to None when absent, so _resolve can fall
            # back to the config file and then to the table default
            kind = (dict(action="store_const", const=True) if opt.domain is _SWITCH
                    else dict(type=opt.domain.type))
            p.add_argument(opt.flag, dest=opt.key, default=None, help=opt.help, **kind)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, _, options = _COMMANDS[args.command]
    started = time.monotonic()
    try:
        config = _read_config(args.config) if args.config else {}
        cfg = _resolve(args, config, options)
        results = handler(cfg)
        if results is not None:
            summary = {
                "command": args.command,
                "config": cfg,
                "results": results,
                "provenance": {"seed": cfg.get("seed"), "version": __version__},
            }
            _emit_json(summary, cfg["out"])
    except SolverError as exc:
        print(f"hyperc: solver failure: {exc}", file=sys.stderr)
        return SOLVER_ERROR
    except (WindowError, ValueError, OSError) as exc:
        print(f"hyperc: {exc}", file=sys.stderr)
        return USAGE_ERROR
    # wall time goes to stderr, never into the summary files, so reruns
    # with identical seeds stay byte-identical
    print(f"hyperc: {args.command} finished in {time.monotonic() - started:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
