"""hyperc benchmark: one command, every metric by name and unit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload f-grid --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics.  Set-up time is the median
of several fresh interpreters; the workload itself then runs in one more
fresh interpreter for ``--seconds``.  ``--trace 1`` runs the workload with
one worker, alternating untraced and traced passes, and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a
results file with provenance goes to ``perfbench/results/``.

Workloads, metrics and tolerances are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

# set-up is timed in SETUP_RUNS fresh interpreters plus the measuring one
SETUP_RUNS = 3
DEADLINE_S = 170.0  # every run must end within 180 s
# The host's speed drifts by up to a factor of two over minutes, so set-up
# time is reported at a nominal speed: the median set-up time times
# NOMINAL_REFERENCE_S over the median time the reference computation took
# between the run's operations.  Between two sets of ten runs 20 minutes
# apart the raw median moved by up to 25 %, this ratio by at most 6 %.
NOMINAL_REFERENCE_S = 0.0125
RATE_KEYS = (
    "trials_per_s.vacant",
    "trials_per_s.occupied",
    "trials_per_s.lines",
    "sandwich_trials_per_s",
    "ray_samples_per_s",
    "solves_per_s",
)


def _spec() -> dict:
    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _child(args: list[str], env: dict, deadline: float) -> None:
    """Run a child interpreter in its own process group; on timeout,
    kill the group (pool workers included) and wait for it."""
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "runner.py"), *args],
                            env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {args[0]} exceeded the time limit")
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        raise SystemExit(f"perfbench: {args[0]} exited with {proc.returncode}")


def _read(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: Path, args, versions: dict) -> dict:
    return {
        "machine": {
            "cores": os.cpu_count(),
            "platform": platform.platform(),
            "processor": platform.machine(),
            "python": platform.python_version(),
            **versions,
        },
        "git_sha": _git_sha(root),
        "src_sha256": _src_digest(root / "src" / "hyperc"),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": sys.argv[1:],
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def trimmed_mean(values: list[float]) -> float:
    """Mean after dropping the lowest and highest fifth (at least one
    each when there are three or more values).  Over five seeds it
    spread 6.7 % on ``tube`` where the median spread 9.7 %: a tube pass's
    work varies (an occupied sandwich trial costs one of two very
    different amounts), and the mean averages that better."""
    v = sorted(values)
    k = max(1, len(v) // 5) if len(v) >= 3 else 0
    return statistics.fmean(v[k:len(v) - k])


def _table(rows: list[tuple[str, float, str]]) -> str:
    width = max(len(r[0]) for r in rows)
    return "\n".join(f"  {name:<{width}}  {value:>14.6g}  {unit}" for name, value, unit in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hyperc benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "hyperc" / "__init__.py").is_file():
        print(f"perfbench: no hyperc sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = _spec()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("HYPERC_SEED", None)
    # one BLAS thread: on a 2-core host shared with other jobs a second
    # BLAS thread makes the solve times vary by +-12 % from pass to pass
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    with tempfile.TemporaryDirectory(dir=results_dir) as tmp:
        setups = []
        if not args.trace:
            for i in range(SETUP_RUNS):
                out = Path(tmp) / f"setup{i}.json"
                _child(["setup", "--workload", args.workload, "--src", str(src),
                        "--out", str(out)], env, deadline)
                setups.append(_read(out))
        out = Path(tmp) / "measure.json"
        spans = results_dir / f"{stem}-spans.csv.gz"
        _child(["measure", "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--src", str(src), "--out", str(out)]
               + (["--spans", str(spans)] if args.trace else []), env, deadline)
        measured = _read(out)
    if not args.trace:
        setups.append(measured["setup"])

    attempted, failed = measured["attempted"], measured["failed"]
    if args.trace:
        declared = spec["per_layer"]
        values = measured["per_layer"]
    else:
        declared = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups)
            * NOMINAL_REFERENCE_S / statistics.median(measured["reference_s"]),
            "wall_ref": trimmed_mean(measured["wall_ref"]),
            "peak_rss_mb": max(measured["peak_rss_self_mb"], measured["peak_rss_children_mb"]),
            "success_rate": 1.0 - failed / attempted,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {attempted} operations, {failed} failed")
    print(_table([(k, v["value"], v["unit"]) for k, v in metrics.items()]))
    prov = provenance(root, args, measured.pop("versions"))
    report = {"provenance": prov, "metrics": metrics, "measured": measured}
    if not args.trace:
        extra = [("error_rate", failed / attempted, "ratio"),
                 ("wall_s", statistics.median(measured["wall_s"]), "s"),
                 ("reference_s", statistics.median(measured["reference_s"]), "s"),
                 ("setup_raw_s", statistics.median(s["setup_s"] for s in setups), "s"),
                 ("setup.import_s", statistics.median(s["import_s"] for s in setups), "s"),
                 ("setup.lazy_s", statistics.median(s["lazy_s"] for s in setups), "s"),
                 ("setup.first_call_s", statistics.median(s["first_call_s"] for s in setups), "s"),
                 ("passes", len(measured["wall_s"]), "count")]
        extra += [(k, measured["rates"][k], "1/s") for k in RATE_KEYS if k in measured["rates"]]
        print("also measured (not gated):")
        print(_table(extra))
        report["setups"] = setups
        report["also_measured"] = {name: {"value": v, "unit": u} for name, v, u in extra}
    for probe in measured["defect_probes"]:
        state = "still fails" if probe["still_fails"] else "now passes"
        print(f"known defect probe {probe['name']}: {state} ({probe['error']}); {probe['defect']}")
    for failure in measured["failures"]:
        print(f"FAILED {failure}")
    with open(results_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
