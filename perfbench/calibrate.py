"""Repeat-seed calibration of the occupied alpha gate.

``alpha_stderr`` from the exponent fit treats the nested r values as
independent, so it understates the error of alpha_hat.  This script
runs the workloads' occupied ``simulate-f`` operations over many seeds
and prints the mean and standard deviation of alpha_hat - alpha_exact,
from which ``gates.ALPHA_OCCUPIED_SD`` is set.

Run from the repository root:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/calibrate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics

import workloads

SEEDS = 40  # gates.ALPHA_OCCUPIED_SD comes from this many seeds


def main() -> None:
    import hyperc.cli as cli

    for workload in ("f-grid", "f-deep"):
        errs, zs = [], []
        for seed in range(1000, 1000 + SEEDS):
            op = next(o for o in workloads.operations(workload, seed)
                      if o["name"] == "simulate-f.occupied")
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(op["cli"])
            if code != 0:
                raise SystemExit(f"{workload} seed {seed}: exit {code}")
            res = json.loads(buf.getvalue())["results"]
            errs.append(res["alpha_hat"] - res["alpha_analytic"])
            zs.append(errs[-1] / res["alpha_stderr"])
        print(json.dumps({
            "workload": workload,
            "seeds": SEEDS,
            "mean_err": statistics.fmean(errs),
            "sd_err": statistics.stdev(errs),
            "sd_z": statistics.stdev(zs),
            "max_abs_err": max(abs(e) for e in errs),
        }))


if __name__ == "__main__":
    main()
