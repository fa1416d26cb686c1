import json

import pytest

from hyperc import cli
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
    _case("tree", ["tree", "--arc-length", "1.2", "--depth", "3", "--paths", "8",
                   "--check-separation", "--seed", "7"], ["--svg"]),
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


@pytest.mark.parametrize("command", sorted(SMOKE))
def test_bad_model_is_a_usage_error(command):
    argv = [command, "--model", "sticks", "--lambda", "0.1", "--seed", "1", *SMOKE[command]]
    assert main(argv) == USAGE_ERROR


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
    assert main(["tree", "--depth", "10", "--seed", "1"]) == USAGE_ERROR
    assert "MAX_RADIUS" in capsys.readouterr().err


def test_unbracketed_critical_intensity_is_a_solver_error(capsys):
    assert main(["critical", "--R", "20"]) == SOLVER_ERROR
    assert "no lambda_gc bracket above 1e-12" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_non_finite_exponent_residual_is_a_solver_error(capsys):
    """At R = 8 the renewal integral overflows, and the NaN residual
    must not pass as a solved exponent."""
    assert main(["alpha", "--model", "occupied", "--lambda", "1", "--R", "8"]) == SOLVER_ERROR
    captured = capsys.readouterr()
    assert "exponent residual nan" in captured.err and captured.out == ""


@pytest.mark.parametrize("directions", ["0", "3", "-4"])
def test_too_few_directions_is_a_usage_error(directions, capsys):
    argv = ["detect-line", "--lambda", "0.1", "--directions", directions, "--samples", "2"]
    assert main([*argv, "--seed", "1"]) == USAGE_ERROR
    assert "need at least 8 directions" in capsys.readouterr().err


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
            ["tree", "--depth", "2", "--paths", "4", "--check-separation", "--seed", "3"],
            "depth = 2\npaths = 4\ncheck_separation = TRUE\nseed = 3\n",
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
    assert main(["tree", "--depth", "2", "--paths", "4", "--seed", "3", "--config", str(path)]) == 0
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
