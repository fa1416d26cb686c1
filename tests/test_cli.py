import json
import warnings

import numpy as np
import pytest

from hyperc import cli, percolation, sampling
from hyperc.cli import SOLVER_ERROR, USAGE_ERROR, main

MODELS = [("vacant", "0.1"), ("occupied", "1.0"), ("lines", "0.1")]

SMOKE = {
    "rays": ["--r", "3.0", "--directions", "32", "--samples", "20"],
    "detect-line": ["--s", "0.1", "--r", "4.0", "--directions", "90", "--samples", "10"],
}

# the file-valued flags a run writes besides --out, each to its own file
FILES = {"--csv": "table.csv", "--svg": "tree.svg"}


def _case(case_id, argv, files=()):
    return pytest.param(argv, files, id=case_id)


CASES = [
    *(
        _case(f"{model}-{lam}-{command}",
              [command, "--model", model, "--lambda", lam, "--seed", "7", *SMOKE[command]])
        for model, lam in MODELS
        for command in sorted(SMOKE)
    ),
    *(_case(f"alpha-{model}", ["alpha", "--model", model, "--lambda", lam]) for model, lam in MODELS),
    *(_case(f"critical-{model}", ["critical", "--model", model, "--R", "1.0"]) for model, _ in MODELS),
    *(
        _case(f"simulate-f-{model}",
              ["simulate-f", "--model", model, "--lambda", lam, "--rmin", "0", "--rmax", "3",
               "--trials", "300", "--seed", "7"],
              ["--csv"])
        for model, lam in MODELS
    ),
    _case("s-dist", ["s-dist", "--lambda", "0.3", "--trials", "500", "--grid", "20", "--seed", "7"],
          ["--csv"]),
    _case("grassmann", ["grassmann", "--r-values", "0.5,2", "--theta-values", "1.0", "--rho", "0.5",
                        "--mc-lambda", "0.5", "--mc-trials", "200", "--mc-rmax", "2", "--seed", "7"]),
    _case("lrp", ["lrp", "--lambda", "0.5", "--c", "0.8", "--nmin", "3", "--nmax", "20"], ["--csv"]),
    _case("tree", ["tree", "--arc-length", "1.2", "--depth", "3", "--check-separation"],
          ["--svg"]),
    _case("render-points", ["render", "--model", "points", "--lambda", "0.5", "--R", "0.5",
                            "--window", "2.0", "--seed", "7"]),
    _case("render-lines", ["render", "--model", "lines", "--lambda", "0.5", "--rho", "2.0",
                           "--seed", "7"]),
    _case("render-tree", ["render", "--model", "tree", "--arc-length", "1.2", "--depth", "3"]),
]


@pytest.mark.parametrize("argv, files", CASES)
def test_runs_and_reruns_byte_identically(tmp_path, argv, files):
    """Every subcommand exits 0 and writes the same bytes to the same
    --out (JSON, or SVG for render) and to its CSV or SVG file."""
    paths = [tmp_path / "out", *(tmp_path / FILES[flag] for flag in files)]
    flags = [arg for flag, path in zip(["--out", *files], paths) for arg in (flag, str(path))]
    runs = []
    for _ in range(2):
        assert main([*argv, *flags]) == 0
        runs.append([path.read_bytes() for path in paths])
    assert runs[0] == runs[1]
    if argv[0] == "render":
        assert b"<svg" in runs[0][0]
        return
    summary = json.loads(runs[0][0])
    assert summary["command"] == argv[0]
    if "--model" in argv:
        assert summary["config"]["model"] == argv[argv.index("--model") + 1]


# small runs of every subcommand, onto which one option at a time is overridden
SCAN_BASE = {
    "alpha": ["--lambda", "0.3"],
    "critical": [],
    "simulate-f": ["--lambda", "0.1", "--trials", "100", "--rmax", "2", "--seed", "1"],
    "rays": ["--lambda", "0.1", "--samples", "2", "--r", "2", "--seed", "1"],
    "detect-line": ["--lambda", "0.1", "--samples", "2", "--r", "3", "--seed", "1"],
    "s-dist": ["--lambda", "0.5", "--trials", "100", "--grid", "10", "--seed", "1"],
    "grassmann": ["--r-values", "1", "--theta-values", "1", "--mc-lambda", "0.5",
                  "--mc-trials", "100", "--mc-rmax", "2", "--seed", "1"],
    "lrp": ["--nmax", "20"],
    "tree": ["--depth", "3"],
    "render": ["--seed", "1", "--depth", "3"],
}
SCAN_MODELS = {"render": ("points", "lines", "tree")}
# per domain: the first values outside it, and the least value inside it where it has one
SCAN_EDGES = {
    cli._NONNEGATIVE: (["-5e-324"], "0"),
    cli._POSITIVE: (["0"], None),
    cli._COUNT: (["-1"], "0"),
    cli._POSITIVE_COUNT: (["0"], "1"),
    cli._NONNEGATIVE_LIST: (["-5e-324", "1,-1"], "0"),
}


def _has_model(options) -> bool:
    return any(opt.flag == "--model" for opt in options)


def _scan_cases():
    for command, (_, _, options) in cli._COMMANDS.items():
        for model in SCAN_MODELS.get(command, percolation.MODELS) if _has_model(options) else [None]:
            for opt in options:
                if opt.domain in SCAN_EDGES:
                    yield pytest.param(command, model, opt,
                                       id=f"{command}-{model or 'any'}-{opt.flag.lstrip('-')}")


def _with(argv, flag, value):
    argv = list(argv)
    if flag in argv:
        del argv[argv.index(flag):argv.index(flag) + 2]
    return [*argv, f"{flag}={value}"]


@pytest.mark.parametrize("command, model, opt", _scan_cases())
def test_every_option_is_refused_outside_its_domain(tmp_path, capsys, command, model, opt):
    """Under every model or scene, whether the run reads the option or
    not, nan, plus or minus inf (for floats) and the first values
    outside the option's domain exit 2 with one line naming the flag and
    no summary.  The least value inside the domain, where it has one,
    is not refused by the table, and a run that it lets finish echoes
    only finite numbers in its config."""
    base = [command, *SCAN_BASE[command], *(["--model", model] if model else []),
            *(["--out", str(tmp_path / "out")] if command == "render" else [])]
    outside, least = SCAN_EDGES[opt.domain]
    for value in ([] if opt.domain.type is int else ["nan", "inf", "-inf"]) + outside:
        argv = _with(base, opt.flag, value)
        assert main(argv) == USAGE_ERROR, argv
        captured = capsys.readouterr()
        assert captured.err == f"hyperc: {opt.flag} must be {opt.domain.text}\n", argv
        assert captured.out == ""
    if least is None:
        return
    argv = _with(base, opt.flag, least)
    code = main(argv)
    captured = capsys.readouterr()
    assert f"hyperc: {opt.flag} must be" not in captured.err, argv
    assert code in (0, USAGE_ERROR, SOLVER_ERROR), argv
    if code == 0 and command != "render":
        def bare(constant):
            raise AssertionError(f"bare {constant} in the summary of {argv}")

        config = json.loads(captured.out, parse_constant=bare)["config"]
        assert not {"nan", "inf", "-inf"} & set(map(str, config.values())), (argv, config)


@pytest.mark.parametrize("command", sorted(c for c, (_, _, opts) in cli._COMMANDS.items()
                                            if _has_model(opts)))
def test_bad_model_is_a_usage_error(command, capsys):
    assert main([command, *SCAN_BASE[command], "--model", "sticks"]) == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("hyperc: --model must be one of ") and captured.out == ""


@pytest.mark.parametrize(
    "command, text, message",
    [("simulate-f", "lam = 0.1\nrstep = 0\n", "--rstep must be positive and finite"),
     ("rays", "lam = 0.1\nsamples = 0\n", "--samples must be at least 1")],
    ids=["rstep", "samples"],
)
def test_config_file_values_are_refused_outside_their_domain(tmp_path, capsys, command, text,
                                                             message):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    assert main([command, "--config", str(path), "--seed", "1"]) == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"hyperc: {message}\n" and captured.out == ""


@pytest.mark.parametrize(
    "flags, trials", [([], 50), (["--trials", "80"], 80)], ids=["config", "flag-overrides-config"]
)
def test_config_file_sets_defaults_and_flags_override_it(tmp_path, flags, trials):
    config = tmp_path / "run.cfg"
    config.write_text("# s-dist run\nlam = 0.2\ntrials = 50\n", encoding="utf-8")
    out = tmp_path / "out.json"
    argv = ["s-dist", "--config", str(config), "--seed", "3", "--grid", "10", *flags]
    assert main([*argv, "--out", str(out)]) == 0
    cfg = json.loads(out.read_text())["config"]
    assert (cfg["lam"], cfg["trials"], cfg["R"]) == (0.2, trials, 1.0)


@pytest.mark.parametrize("command", ["alpha", "detect-line", "rays", "s-dist", "simulate-f"])
def test_missing_lambda_is_a_usage_error(command, capsys):
    assert main([command]) == USAGE_ERROR
    assert "--lambda is required" in capsys.readouterr().err


def test_too_deep_tree_is_a_usage_error(capsys):
    assert main(["tree", "--depth", "10"]) == USAGE_ERROR
    assert "MAX_RADIUS" in capsys.readouterr().err


# (arc length, vertex_to_line, r_prime) to six digits, and accepted depths
TUBE_CONSTANTS = [
    ("0.5", 0.570931, 2.085549, ["0", "3", "6"]),
    ("1.0", 0.647148, 1.424409, ["0", "4", "9"]),
    ("1.5", 0.835373, 1.151959, ["0", "6", "14"]),
    ("2.0", 1.625429, 1.656437, ["0", "7", "14"]),
]


@pytest.mark.parametrize("arc, delta, r_prime, depths", TUBE_CONSTANTS,
                         ids=[row[0] for row in TUBE_CONSTANTS])
def test_tree_reports_the_tube_constants_at_any_depth(arc, delta, r_prime, depths, capsys):
    """The constants come from the arc length alone: every accepted depth,
    the deepest included, reports the same bits."""
    reported = set()
    for depth in depths:
        assert main(["tree", "--arc-length", arc, "--depth", depth]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        reported.add((results["vertex_to_line"], results["r_prime"]))
    assert len(reported) == 1
    got = reported.pop()
    assert (round(got[0], 6), round(got[1], 6)) == (delta, r_prime)


@pytest.mark.parametrize("flag", [["--paths", "8"], ["--seed", "1"]], ids=["paths", "seed"])
def test_tree_has_no_paths_or_seed(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["tree", *flag])
    assert exit_info.value.code == USAGE_ERROR
    assert "unrecognized arguments" in capsys.readouterr().err


def test_a_trial_above_the_sampling_cap_is_a_usage_error(capsys, monkeypatch):
    # refused before anything is drawn, so no memory is asked for
    argv = ["simulate-f", "--model", "vacant", "--lambda", "1", "--seed", "1"]
    assert main([*argv, "--R", "30"]) == USAGE_ERROR
    assert "beyond MAX_TRIAL_POINTS" in capsys.readouterr().err
    monkeypatch.setattr(sampling, "MAX_TRIAL_POINTS", 10)
    assert main([*argv, "--R", "1", "--trials", "100"]) == USAGE_ERROR
    assert "beyond MAX_TRIAL_POINTS = 10" in capsys.readouterr().err


def test_an_S_law_trial_above_the_sampling_cap_is_a_usage_error(capsys, monkeypatch):
    # the law of S draws its own counts, and is refused before them
    argv = ["s-dist", "--seed", "1"]
    assert main([*argv, "--lambda", "1", "--R", "40"]) == USAGE_ERROR
    assert "one trial expects 7.395e+17 points, beyond MAX_TRIAL_POINTS" in capsys.readouterr().err
    monkeypatch.setattr(sampling, "MAX_TRIAL_POINTS", 10)
    assert main([*argv, "--lambda", "4", "--R", "1"]) == USAGE_ERROR
    assert "one trial expects 13.65 points, beyond MAX_TRIAL_POINTS = 10" in capsys.readouterr().err


def test_unbracketed_critical_intensity_is_a_solver_error(capsys):
    assert main(["critical", "--R", "20"]) == SOLVER_ERROR
    assert "no lambda_gc bracket above 1e-12" in capsys.readouterr().err


def test_non_finite_exponent_residual_is_a_solver_error(capsys):
    """At R = 8 the renewal integral overflows, and the NaN residual
    must not pass as a solved exponent; the failure is reported in one
    line, without numpy's overflow warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["alpha", "--model", "occupied", "--lambda", "1", "--R", "8"]) == SOLVER_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("hyperc: solver failure: exponent residual nan")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_exponent_above_the_tangent_bound_is_a_solver_error(capsys):
    """At lambda = 1000, R = 1 the solve lands on 0.471, far above the
    tangent bound; it is reported as a solver failure, not printed."""
    assert main(["alpha", "--model", "occupied", "--lambda", "1000", "--R", "1"]) == SOLVER_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("hyperc: solver failure: exponent 0.471301 breaks the tangent")
    assert captured.out == ""


@pytest.mark.parametrize("directions", ["0", "3", "-4"])
def test_too_few_directions_is_a_usage_error(directions, capsys):
    """The table refuses a count below 1, the library one below 8."""
    argv = ["detect-line", "--lambda", "0.1", "--directions", directions, "--samples", "2"]
    assert main([*argv, "--seed", "1"]) == USAGE_ERROR
    message = ("--directions must be at least 1" if int(directions) < 1
               else "need at least 8 directions")
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate-f", "--lambda", "0.1", "--rstep", "0"], "--rstep must be positive"),
        (["simulate-f", "--lambda", "0.1", "--rstep", "-1"], "--rstep must be positive"),
        (["simulate-f", "--lambda", "0.1", "--rmin", "3", "--rmax", "1"],
         "rmax must be at least rmin"),
        (["simulate-f", "--lambda", "0.1", "--r-values", ","], "need at least one r value"),
        (["grassmann", "--mc-lambda", "0.1", "--mc-rmax", "0.5"], "need at least one r value"),
        *(((["simulate-f", "--lambda", "0.1", *bound, "--trials", "100"], message))
          for bound, message in ((["--rmax", "inf"], "--rmax must be nonnegative and finite"),
                                 (["--rmin=-inf"], "--rmin must be nonnegative and finite"),
                                 (["--rstep", "inf"], "--rstep must be positive and finite"),
                                 (["--rmin", "nan"], "--rmin must be nonnegative and finite"))),
        *(((["simulate-f", "--lambda", "0.1", "--r-values", values, "--trials", "100"],
            "--r-values must be a comma list of nonnegative finite numbers"))
          for values in ("0,nan", "0,inf")),
    ],
    ids=["rstep-0", "rstep-negative", "inverted", "empty-list", "grassmann-below-1",
         "rmax-inf", "rmin-minus-inf", "rstep-inf", "rmin-nan", "r-values-nan", "r-values-inf"],
)
def test_empty_or_inverted_r_grid_is_a_usage_error(argv, message, capsys):
    assert main([*argv, "--seed", "1"]) == USAGE_ERROR
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("values", ["nan,1", "1,inf", "-inf"])
def test_grassmann_refuses_a_non_finite_r(values, capsys):
    assert main(["grassmann", f"--r-values={values}"]) == USAGE_ERROR
    captured = capsys.readouterr()
    assert "--r-values must be a comma list of nonnegative finite numbers" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("r", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", sorted(SMOKE))
def test_non_finite_r_is_a_usage_error(command, r, capsys):
    argv = [command, "--lambda", "0.1", "--seed", "1", *SMOKE[command], f"--r={r}"]
    assert main(argv) == USAGE_ERROR
    captured = capsys.readouterr()
    assert "--r must be positive and finite" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", sorted(SMOKE))
def test_no_samples_is_a_usage_error(command, capsys):
    argv = [command, "--lambda", "0.1", "--seed", "1", *SMOKE[command], "--samples", "0"]
    assert main(argv) == USAGE_ERROR
    assert "--samples must be at least 1" in capsys.readouterr().err


def test_nan_intensity_is_a_usage_error(capsys):
    assert main(["alpha", "--lambda", "nan"]) == USAGE_ERROR
    captured = capsys.readouterr()
    assert "--lambda must be nonnegative and finite" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        *((["alpha", "--model", "lines", f"--lambda={lam}"], "--lambda must be nonnegative")
          for lam in ("-1", "nan")),
        *((["lrp", f"--lambda={lam}"], "--lambda must be nonnegative") for lam in ("-1", "nan")),
        (["lrp", "--c=5"], "c must lie in [0, 1]"),
        *((["lrp", f"--c={c}"], "--c must be nonnegative and finite") for c in ("-0.5", "nan")),
        (["lrp", "--nmin", "5", "--nmax", "2"], "nmax must be at least nmin"),
        *((["s-dist", "--lambda", "1", f"--grid={grid}", "--seed", "1"],
           "--grid must be at least 1") for grid in ("0", "-3")),
        *((["alpha", "--model", model, "--lambda", "inf"],
           "--lambda must be nonnegative and finite") for model in ("vacant", "lines")),
        (["lrp", "--lambda", "inf"], "--lambda must be nonnegative and finite"),
        *((["critical", "--model", model, "--R", "inf"], "--R must be positive and finite")
          for model in ("occupied", "vacant")),
        (["alpha", "--model", "occupied", "--lambda", "1", "--R", "inf"],
         "--R must be positive and finite"),
        (["detect-line", "--lambda", "0.1", "--s", "inf", "--samples", "2", "--seed", "1"],
         "--s must be positive and finite"),
        *((["grassmann", "--mc-lambda", "0.3", f"--mc-rmax={rmax}", "--seed", "1"],
           "--mc-rmax must be nonnegative and finite") for rmax in ("inf", "nan")),
        (["grassmann", "--rho", "inf"], "--rho must be positive and finite"),
    ],
    ids=["alpha-lines-negative", "alpha-lines-nan", "lrp-negative", "lrp-nan", "lrp-c-above-1",
         "lrp-c-negative", "lrp-c-nan", "lrp-inverted", "s-dist-grid-0", "s-dist-grid-negative",
         "alpha-vacant-inf", "alpha-lines-inf", "lrp-inf", "critical-occupied-R-inf",
         "critical-vacant-R-inf", "alpha-occupied-R-inf", "detect-line-s-inf",
         "grassmann-mc-rmax-inf", "grassmann-mc-rmax-nan", "grassmann-rho-inf"],
)
def test_out_of_range_parameter_is_a_usage_error(argv, message, capsys):
    """Each is refused before anything is computed or drawn, in one
    line, with no summary."""
    assert main(argv) == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("hyperc: ") and captured.err.count("\n") == 1
    assert message in captured.err and captured.out == ""


def test_no_exposure_reads_nan_as_a_json_string(capsys):
    """At lambda 20 no trial keeps the lines off a segment of length 3,
    so the exponent has no exposure and is (nan, nan); the summary must
    stay valid JSON, which has no NaN literal."""
    argv = ["simulate-f", "--model", "lines", "--lambda", "20", "--rmin", "3", "--rmax", "4",
            "--trials", "100", "--seed", "1"]
    assert main(argv) == 0

    def bare(constant):
        raise AssertionError(f"bare {constant} in the summary")

    results = json.loads(capsys.readouterr().out, parse_constant=bare)["results"]
    assert results["alpha_hat"] == "nan" and results["alpha_stderr"] == "nan"


def test_non_finite_floats_become_strings():
    obj = {"a": float("nan"), "b": [np.float64("-inf"), np.float32("inf")], "c": np.float32(0.5)}
    assert cli._json_ready(obj) == {"a": "nan", "b": ["-inf", "inf"], "c": 0.5}


@pytest.mark.parametrize(
    "argv", [["alpha", "--model", "occupied", "--lambda", "0.5"], ["critical"]]
)
def test_deterministic_summaries_carry_no_seed(argv, capsys):
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    assert "seed" not in summary["config"]
    assert summary["provenance"]["seed"] is None


@pytest.mark.parametrize(
    "flags, generated",
    [([], False), (["--mc-lambda", "0.5", "--mc-trials", "200", "--mc-rmax", "2"], True)],
    ids=["closed-forms", "monte-carlo"],
)
def test_grassmann_resolves_a_seed_only_for_monte_carlo(flags, generated, capsys, monkeypatch):
    monkeypatch.delenv("HYPERC_SEED", raising=False)
    assert main(["grassmann", "--r-values", "1", "--theta-values", "1.0", *flags]) == 0
    captured = capsys.readouterr()
    assert ("generated seed" in captured.err) == generated
    assert (json.loads(captured.out)["config"]["seed"] is not None) == generated


@pytest.mark.parametrize(
    "argv, config",
    [
        (["alpha", "--model", "lines", "--lambda", "1"], "model = lines\nlam = 1\n"),
        (
            ["simulate-f", "--model", "occupied", "--lambda", "1", "--r-values", "0,1",
             "--trials", "200", "--seed", "5"],
            "model = occupied\nlam = 1\nr-values = 0,1\ntrials = 200\nseed = 5\n",
        ),
        (
            ["tree", "--arc-length", "1.5", "--depth", "2", "--check-separation"],
            "arc_length = 1.5\ndepth = 2\ncheck_separation = TRUE\n",
        ),
    ],
    ids=["alpha", "simulate-f", "tree"],
)
def test_config_file_and_flags_give_identical_summaries(tmp_path, argv, config):
    """Config values take each option's declared type, as flags do."""
    path = tmp_path / "run.cfg"
    path.write_text(config, encoding="utf-8")
    out = tmp_path / "out.json"
    summaries = []
    for args in (argv, [argv[0], "--config", str(path)]):
        assert main([*args, "--out", str(out)]) == 0
        summaries.append(out.read_bytes())
    assert summaries[0] == summaries[1]


def test_config_switch_can_be_false(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("check_separation = false\n", encoding="utf-8")
    assert main(["tree", "--depth", "2", "--config", str(path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["config"]["check_separation"] is False
    assert "all_separated" not in summary["results"]


@pytest.mark.parametrize(
    "command, text",
    [
        ("alpha", None),
        ("alpha", "lam = 0.2\nmodel\n"),
        ("simulate-f", "lam = 0.2\ntrials = many\n"),
        ("tree", "check_separation = yes\n"),
    ],
    ids=["missing-file", "no-equals", "bad-int", "bad-switch"],
)
def test_bad_config_is_a_usage_error(tmp_path, capsys, command, text):
    path = tmp_path / "run.cfg"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    assert main([command, "--config", str(path)]) == USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("hyperc: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "text, key", [("radius = 2\n", "radius"), ("trials = 50\n", "trials")],
    ids=["misspelt", "other-subcommand"],
)
def test_unknown_config_key_is_a_usage_error(tmp_path, capsys, text, key):
    """A key that no option of the subcommand reads is named, not dropped."""
    path = tmp_path / "run.cfg"
    path.write_text("lam = 1\n" + text, encoding="utf-8")
    assert main(["alpha", "--model", "vacant", "--config", str(path)]) == USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("hyperc: ") and key in err and "alpha" in err
    assert "lam" not in err.split(":", 2)[-1]


# one run after another in one process; "CFG" stands for the config file
# below, and the last two runs end in usage errors (a missing --lambda,
# which main reports, and a bad int, which the parser rejects)
SEQUENCE = [
    ["simulate-f", "--config", "CFG"],
    ["simulate-f", "--model", "vacant", "--lambda", "0.2", "--trials", "200", "--seed", "8"],
    ["alpha", "--model", "occupied", "--lambda", "1.0"],
    ["lrp", "--lambda", "0.5", "--nmax", "20", "--csv", "CSV"],
    ["s-dist", "--lambda", "0.3", "--trials", "300", "--grid", "10", "--seed", "4"],
    ["critical", "--model", "vacant", "--R", "0.5"],
    ["simulate-f", "--model", "lines", "--lambda", "0.3", "--rmax", "3", "--trials", "100",
     "--seed", "2", "--workers", "2"],
    ["alpha", "--model", "vacant"],
    ["simulate-f", "--lambda", "0.2", "--trials", "many"],
]


def test_repeated_main_calls_match_fresh_ones(tmp_path, capsys):
    """main builds its parser once per process; runs that follow one
    another write the same bytes as runs that each build a new one."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = occupied\nlam = 1.5\nrmax = 3\ntrials = 200\nseed = 8\n",
                   encoding="utf-8")
    assert cli._build_parser() is cli._build_parser()

    def run(fresh):
        outputs = []
        for i, argv in enumerate(SEQUENCE):
            out, csv = tmp_path / f"{i}.out", tmp_path / f"{i}.csv"
            argv = [{"CFG": str(cfg), "CSV": str(csv)}.get(arg, arg) for arg in argv]
            if fresh:
                cli._build_parser.cache_clear()
            try:
                code = main([*argv, "--out", str(out)])
            except SystemExit as exc:
                code = exc.code
            outputs.append([code, *(p.read_bytes() if p.exists() else None for p in (out, csv))])
            out.unlink(missing_ok=True)
            csv.unlink(missing_ok=True)
        return outputs

    again, fresh = run(False), run(True)
    capsys.readouterr()
    assert again == fresh
    assert [o[0] for o in again] == [0] * 7 + [USAGE_ERROR] * 2
    assert again[0][1] != again[1][1]
