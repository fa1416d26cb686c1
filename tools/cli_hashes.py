"""Fingerprint the bytes every hyperc subcommand produces.

Runs ``python -m hyperc.cli`` once for each of a fixed list of 104
invocations, each in a fresh empty directory, and prints one line
``name sha16`` per invocation: the first 16 hex digits of the SHA-256
of the exit code, stdout, stderr and every file the run left behind.
The stderr lines that report the wall time or a generated seed are
dropped first, and in warnings the source directory is replaced by
``<src>`` and the line number is dropped, so reruns with the same seeds
hash alike, also from another checkout, and an edit that only moves a
warning's line leaves the hash alone.

Run it from the repository root, on two checkouts, and compare:

    python tools/cli_hashes.py > after.txt
    python tools/cli_hashes.py --src ../other/src > before.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SIM = ["--rmin", "0", "--rmax", "4", "--trials", "400", "--seed", "11"]
TREE = ["--arc-length", "1.2", "--depth", "4"]

# (name, argv, {file name: text} written before the run, extra environment)
INVOCATIONS = [
    ("alpha.vacant", ["alpha", "--model", "vacant", "--lambda", "0.3", "--R", "0.7"]),
    ("alpha.occupied", ["alpha", "--model", "occupied", "--lambda", "1.0"]),
    ("alpha.lines", ["alpha", "--model", "lines", "--lambda", "0.5"]),
    ("alpha.no-lambda", ["alpha", "--model", "vacant"]),
    ("alpha.occupied.R8", ["alpha", "--model", "occupied", "--lambda", "1", "--R", "8"]),
    # a root above the tangent bound: lambda area B(1) is about 3500
    ("alpha.occupied.lambda1000",
     ["alpha", "--model", "occupied", "--lambda", "1000", "--R", "1"]),
    ("alpha.bad-model", ["alpha", "--model", "cubes", "--lambda", "1"]),
    ("alpha.lines.lambda-negative", ["alpha", "--model", "lines", "--lambda=-1"]),
    ("alpha.vacant.lambda-inf", ["alpha", "--model", "vacant", "--lambda", "inf"]),
    ("alpha.lines.lambda-inf", ["alpha", "--model", "lines", "--lambda", "inf"]),
    # an option that the model does not read is still held to its domain
    ("alpha.lines.R-nan", ["alpha", "--model", "lines", "--lambda", "0.5", "--R", "nan"]),
    ("critical.default", ["critical"]),
    ("critical.vacant", ["critical", "--model", "vacant", "--R", "0.5"]),
    ("critical.lines", ["critical", "--model", "lines"]),
    ("critical.R20", ["critical", "--model", "occupied", "--R", "20"]),
    ("critical.R-inf", ["critical", "--model", "occupied", "--R", "inf"]),
    *((f"critical.occupied.R{R}", ["critical", "--model", "occupied", "--R", R])
      for R in ("0.05", "3", "8")),
    ("simulate-f.vacant.csv",
     ["simulate-f", "--model", "vacant", "--lambda", "0.1", *SIM, "--csv", "f.csv"]),
    ("simulate-f.occupied.rvalues.w2",
     ["simulate-f", "--model", "occupied", "--lambda", "1.0", "--r-values", "0,0.5,1,2",
      "--trials", "600", "--workers", "2", "--seed", "3"]),
    ("simulate-f.lines.envseed",
     ["simulate-f", "--model", "lines", "--lambda", "0.3", "--rmax", "5", "--trials", "500"],
     {}, {"HYPERC_SEED": "42"}),
    ("simulate-f.config",
     ["simulate-f", "--config", "run.cfg"],
     {"run.cfg": "model = vacant\nlam = 0.2\nR = 0.5\ntrials = 300\nseed = 8\n"}),
    ("simulate-f.config+flag",
     ["simulate-f", "--config", "run.cfg", "--trials", "200", "--out", "sum.json"],
     {"run.cfg": "model = occupied\nlam = 1.5\nrmax = 3\ntrials = 900\nseed = 8\n"}),
    # a 129-bit seed, which the stream's SeedSequence takes whole
    ("simulate-f.occupied.long-seed.w2",
     ["simulate-f", "--model", "occupied", "--lambda", "1.0", "--rmax", "3", "--trials", "600",
      "--workers", "2", "--seed", "340282366920938463463374607431768211457"]),
    ("simulate-f.no-lambda", ["simulate-f", "--model", "vacant", "--seed", "1"]),
    ("simulate-f.rstep0", ["simulate-f", "--lambda", "0.1", "--rstep", "0", "--seed", "1"]),
    ("simulate-f.empty-grid", ["simulate-f", "--lambda", "0.1", "--r-values", ",", "--seed", "1"]),
    ("simulate-f.rmax-inf",
     ["simulate-f", "--lambda", "0.1", "--rmax", "inf", "--trials", "100", "--seed", "1"]),
    ("simulate-f.r-values-nan",
     ["simulate-f", "--lambda", "0.1", "--r-values", "0,nan", "--trials", "100", "--seed", "1"]),
    ("simulate-f.r-values-inf",
     ["simulate-f", "--lambda", "0.1", "--r-values", "0,inf", "--trials", "100", "--seed", "1"]),
    ("simulate-f.workers-0",
     ["simulate-f", "--lambda", "0.1", "--trials", "100", "--workers", "0", "--seed", "1"]),
    # no trial keeps the lines off a segment of length 3: alpha_hat is "nan"
    ("simulate-f.lines.no-exposure",
     ["simulate-f", "--model", "lines", "--lambda", "20", "--rmin", "3", "--rmax", "4",
      "--trials", "100", "--seed", "1"]),
    ("rays.vacant",
     ["rays", "--model", "vacant", "--lambda", "0.1", "--r", "4", "--directions", "90",
      "--samples", "30", "--seed", "2"]),
    ("rays.occupied",
     ["rays", "--model", "occupied", "--lambda", "1.0", "--r", "3", "--directions", "64",
      "--samples", "10", "--seed", "2"]),
    ("rays.lines",
     ["rays", "--model", "lines", "--lambda", "0.2", "--samples", "40", "--seed", "2"]),
    # 200 samples of about 126 points: the rays are decided in groups
    ("rays.vacant.groups",
     ["rays", "--model", "vacant", "--lambda", "0.1", "--r", "5", "--samples", "200",
      "--seed", "2"]),
    # 40 samples of about 1261 points, 25 to a block of at most 2^15: the
    # draw spans two blocks
    ("rays.occupied.blocks",
     ["rays", "--model", "occupied", "--lambda", "1.0", "--r", "5", "--directions", "64",
      "--samples", "40", "--seed", "2"]),
    ("rays.no-samples", ["rays", "--lambda", "0.1", "--samples", "0", "--seed", "1"]),
    ("rays.r-nan", ["rays", "--lambda", "0.1", "--r", "nan", "--samples", "2", "--seed", "1"]),
    ("rays.r-inf", ["rays", "--lambda", "0.1", "--r", "inf", "--samples", "2", "--seed", "1"]),
    ("rays.lines.odd-grid",
     ["rays", "--model", "lines", "--lambda", "0.2", "--directions", "63", "--samples", "40",
      "--seed", "2"]),
    # points out to t = 20, where the rays' feet need the polar frame
    ("rays.vacant.far",
     ["rays", "--model", "vacant", "--lambda", "1e-4", "--r", "19", "--directions", "64",
      "--samples", "3", "--seed", "2"]),
    # pi sinh 19 lambda = 2.8e7 lines meet B(o, 19), past the sampling cap;
    # about 500 a sample cross a grid ray
    ("rays.lines.far",
     ["rays", "--model", "lines", "--lambda", "0.1", "--r", "19", "--directions", "360",
      "--samples", "20", "--seed", "2"]),
    # a zero ray length is refused under every model
    ("rays.vacant.r-zero",
     ["rays", "--model", "vacant", "--lambda", "0.1", "--r", "0", "--samples", "2", "--seed", "1"]),
    ("rays.lines.r-zero",
     ["rays", "--model", "lines", "--lambda", "0.1", "--r", "0", "--samples", "2", "--seed", "1"]),
    ("detect-line.lines",
     ["detect-line", "--model", "lines", "--lambda", "0.1", "--samples", "30", "--seed", "4"]),
    ("detect-line.occupied",
     ["detect-line", "--model", "occupied", "--lambda", "1.0", "--r", "4", "--samples", "6",
      "--seed", "4"]),
    ("detect-line.vacant.odd-grid",
     ["detect-line", "--model", "vacant", "--lambda", "0.05", "--r", "4", "--directions", "361",
      "--samples", "20", "--seed", "4"]),
    # chords measured only against the points near their rays
    ("detect-line.occupied.pruned",
     ["detect-line", "--model", "occupied", "--lambda", "1", "--R", "1", "--r", "5",
      "--samples", "8", "--seed", "4"]),
    ("detect-line.vacant.groups",
     ["detect-line", "--model", "vacant", "--lambda", "0.1", "--R", "1", "--r", "5",
      "--samples", "60", "--seed", "4"]),
    # a coarse odd grid and a wide ball: some chords are tried in 3 rounds
    ("detect-line.vacant.rounds",
     ["detect-line", "--model", "vacant", "--lambda", "0.3", "--R", "1", "--r", "2", "--s", "0.6",
      "--directions", "41", "--samples", "100", "--seed", "14"]),
    # samples with no witness and points within R of (0, 1): they run every round
    ("detect-line.occupied.every-round",
     ["detect-line", "--model", "occupied", "--lambda", "0.6", "--R", "1", "--r", "4",
      "--samples", "10", "--seed", "3"]),
    # 8 of 20 samples hold a point within R of (0, 1), so no ray of theirs survives
    ("detect-line.vacant.dead-at-o",
     ["detect-line", "--model", "vacant", "--lambda", "0.2", "--R", "1", "--r", "3",
      "--samples", "20", "--seed", "1"]),
    ("detect-line.occupied.blocks",
     ["detect-line", "--model", "occupied", "--lambda", "1.0", "--r", "5", "--directions", "64",
      "--samples", "40", "--seed", "2"]),
    ("detect-line.vacant.r-zero",
     ["detect-line", "--model", "vacant", "--lambda", "0.1", "--r", "0", "--samples", "2",
      "--seed", "1"]),
    # chords far shorter than rounding of their length's cosh, read in the frame at the foot
    ("detect-line.vacant.r-tiny",
     ["detect-line", "--model", "vacant", "--lambda", "0.1", "--r", "1e-8", "--samples", "20",
      "--seed", "1"]),
    ("detect-line.lines.far",
     ["detect-line", "--model", "lines", "--lambda", "0.1", "--r", "19", "--samples", "20",
      "--seed", "4"]),
    ("detect-line.negative-s",
     ["detect-line", "--lambda", "0.1", "--s", "-1", "--samples", "2", "--seed", "1"]),
    ("detect-line.s-inf",
     ["detect-line", "--lambda", "0.1", "--s", "inf", "--samples", "2", "--seed", "1"]),
    ("detect-line.r-nan",
     ["detect-line", "--lambda", "0.1", "--r", "nan", "--samples", "2", "--seed", "1"]),
    ("detect-line.no-directions",
     ["detect-line", "--lambda", "0.1", "--directions", "0", "--samples", "3", "--seed", "4"]),
    ("s-dist.csv",
     ["s-dist", "--lambda", "1.0", "--trials", "3000", "--seed", "6", "--csv", "g.csv"]),
    ("s-dist.config",
     ["s-dist", "--config", "s.cfg"], {"s.cfg": "lam = 0.4\nR = 0.8\ntrials = 2000\nseed = 9\n"}),
    # one trial expects 7.4e17 points: refused by the sampling cap
    ("s-dist.R40", ["s-dist", "--lambda", "1", "--R", "40", "--seed", "1"]),
    ("s-dist.grid0", ["s-dist", "--lambda", "1", "--grid", "0", "--seed", "1"]),
    ("grassmann.default", ["grassmann"]),
    ("grassmann.mc",
     ["grassmann", "--rho", "2.0", "--mc-lambda", "0.5,1", "--mc-trials", "300", "--seed", "5"]),
    ("grassmann.r-values-nan", ["grassmann", "--r-values", "nan,1"]),
    ("grassmann.r-values-inf", ["grassmann", "--r-values", "1,inf"]),
    ("grassmann.mc-rmax-inf",
     ["grassmann", "--mc-lambda", "0.3", "--mc-rmax", "inf", "--seed", "1"]),
    ("grassmann.mc-rmax-nan",
     ["grassmann", "--mc-lambda", "0.3", "--mc-rmax", "nan", "--seed", "1"]),
    ("grassmann.rho-inf", ["grassmann", "--rho", "inf"]),
    ("grassmann.no-mc.mc-rmax-inf", ["grassmann", "--mc-rmax", "inf"]),
    ("grassmann.seed-negative", ["grassmann", "--seed=-1"]),
    ("lrp.default.csv", ["lrp", "--csv", "lrp.csv"]),
    ("lrp.args", ["lrp", "--lambda", "0.5", "--c", "0.8", "--nmin", "3", "--nmax", "30"]),
    ("lrp.lambda-negative", ["lrp", "--lambda=-1"]),
    ("lrp.lambda-inf", ["lrp", "--lambda", "inf"]),
    ("lrp.c-above-1", ["lrp", "--c", "5"]),
    ("lrp.inverted", ["lrp", "--nmin", "5", "--nmax", "2"]),
    ("tree.sep.svg", ["tree", *TREE, "--check-separation", "--svg", "tree.svg"]),
    ("tree.default", ["tree"]),
    ("render.lines.default-out", ["render", "--lambda", "0.5", "--rho", "3", "--seed", "1"]),
    ("render.points",
     ["render", "--model", "points", "--lambda", "0.5", "--R", "0.5", "--window", "2",
      "--seed", "1", "--out", "p.svg"]),
    ("render.tree", ["render", "--model", "tree", "--depth", "4", "--out", "t.svg"]),
    ("render.lines.dense",
     ["render", "--lambda", "3", "--rho", "6", "--seed", "2", "--out", "l.svg"]),
    ("render.points.dense",
     ["render", "--model", "points", "--lambda", "2", "--R", "0.3", "--window", "3",
      "--seed", "2", "--out", "p.svg"]),
    ("tree.default.svg", ["tree", "--svg", "t.svg"]),
    ("render.tree.depth7", ["render", "--model", "tree", "--depth", "7", "--out", "t.svg"]),
    ("render.bad-model", ["render", "--model", "cubes", "--seed", "1"]),
    ("render.tree.lambda-negative",
     ["render", "--model", "tree", "--lambda=-1", "--depth", "4", "--out", "t.svg"]),
    ("unknown-flag", ["alpha", "--lambda", "1", "--radius", "2"]),
    ("help", ["--help"]),
    *((f"help.{cmd}", [cmd, "--help"]) for cmd in (
        "alpha", "critical", "simulate-f", "rays", "detect-line", "s-dist", "grassmann",
        "lrp", "tree", "render")),
]

_VOLATILE = re.compile(r"^hyperc: (\S+ finished in \S+s|generated seed \d+)$")
# the line number in a warning's location "<src>/hyperc/analytic.py:174:"
_WARNING_LINE = re.compile(rb"(<src>\S*?\.py):\d+:")


def _fingerprint(src: Path, argv, files=None, env_extra=None) -> str:
    env = {k: v for k, v in os.environ.items() if k != "HYPERC_SEED"}
    env.update({"PYTHONPATH": str(src), "COLUMNS": "100", **(env_extra or {})})
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, text in (files or {}).items():
            (work / name).write_text(text, encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "hyperc.cli", *argv], cwd=work, env=env,
                              capture_output=True, timeout=600)
        stderr = b"\n".join(line for line in proc.stderr.split(b"\n")
                            if not _VOLATILE.match(line.decode("utf-8", "replace")))
        stderr = _WARNING_LINE.sub(rb"\1:", stderr.replace(str(src).encode(), b"<src>"))
        h = hashlib.sha256()
        for part in (str(proc.returncode).encode(), proc.stdout, stderr):
            h.update(len(part).to_bytes(8, "little") + part)
        for path in sorted(work.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory that holds the hyperc package (default: ./src)")
    args = parser.parse_args()
    for name, argv, *extra in INVOCATIONS:
        print(name, _fingerprint(args.src.resolve(), argv, *extra), flush=True)


if __name__ == "__main__":
    main()
