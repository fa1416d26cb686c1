import json

import pytest

from hyperc.cli import USAGE_ERROR, main

SMOKE = {
    "rays": ["--r", "3.0", "--directions", "32", "--samples", "20"],
    "detect-line": ["--s", "0.1", "--r", "4.0", "--directions", "90", "--samples", "10"],
}


@pytest.mark.parametrize("command", sorted(SMOKE))
@pytest.mark.parametrize(
    "model, lam", [("vacant", "0.1"), ("occupied", "1.0"), ("lines", "0.1")]
)
def test_runs_and_reruns_byte_identically(tmp_path, command, model, lam):
    argv = [command, "--model", model, "--lambda", lam, "--seed", "7", *SMOKE[command]]
    out = tmp_path / "summary.json"
    texts = []
    for _ in range(2):
        assert main([*argv, "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    summary = json.loads(texts[0])
    assert summary["config"]["model"] == model


@pytest.mark.parametrize("command", sorted(SMOKE))
def test_bad_model_is_a_usage_error(command):
    argv = [command, "--model", "sticks", "--lambda", "0.1", "--seed", "1", *SMOKE[command]]
    assert main(argv) == USAGE_ERROR
