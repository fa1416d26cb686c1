"""Correctness gates for the benchmark's operations.

Every gate has a stated tolerance.  An operation whose output fails a
gate counts as a failed operation, like a nonzero exit or an exception.
The reference laws are written out here, independently of hyperc:

* vacant:  f(r) = exp(-lambda (2 r sinh R + 2 pi (cosh R - 1)))
* lines:   f(r) = exp(-lambda r)
* occupied alpha: the program's renewal-equation solve (``alpha_analytic``
  in the simulate-f summary), itself gated in the ``solve`` workload.
* occupied solves: values of lambda_gc(R) and alpha(lambda) recorded at
  fixed R and lambda, checked once per ``solve`` run.
"""

from __future__ import annotations

import math

# A run gates up to ~1000 estimates and comparing two commits takes ~100
# runs, so each pointwise gate's false-alarm rate is at most TAIL
# per estimate: an exact two-sided binomial tail for the f estimates and
# the P(S = -inf) atom, and a Hoeffding bound for the rays mean.
TAIL = 3.8e-8
# Kolmogorov bound: P(sqrt(n) sup|F_n - F| > c) <= 2 exp(-2 c^2) = 1e-6 at
# c = 2.69 (Dvoretzky-Kiefer-Wolfowitz with Massart's constant).  The CLI's
# sup over a grid is at most the full sup, so the bound holds.
KS_C = 2.69
# Occupied alpha_hat - alpha_exact: standard deviation over 40 repeat seeds
# of each workload's occupied simulate-f operation (perfbench/calibrate.py),
# keyed by (r_max, trials).  The mean error was -0.0013 and -0.0010, under
# a third of a deviation.  alpha_stderr understates these deviations by a
# factor of 1.5 and 1.6 because it treats the nested r values as
# independent.  The gate allows Z_ALPHA deviations.
ALPHA_OCCUPIED_SD = {(6.0, 1000): 0.00447, (14.0, 500): 0.00414}
Z_ALPHA = 6.0
CRITICAL_RESIDUAL = 1e-8
ALPHA_RESIDUAL = 1e-10
# Values of the occupied solves at fixed R and lambda, recorded from the
# adaptive quadrature of the renewal equation (scipy 1.17.1).  The
# bisection stops at a width of 1e-11 max(1, lambda) and the alpha solve
# at a residual below 1e-12, so a correct solver, whatever it computes
# the crescent area with, agrees to far better than VALUE_REL_TOL.
REFERENCE_LAMBDA_GC = {
    0.05: 505.6031454934246,
    0.3: 6.173034878026193,
    1.0: 0.15987302379520607,
    3.0: 0.0009262918119370706,
}
REFERENCE_ALPHA_R1 = {
    0.2: 0.8533509204667098,
    0.5: 0.3287024515698249,
    1.0: 0.08330450137918888,
    2.0: 0.005039714292706776,
}
VALUE_REL_TOL = 1e-6
# lambda_gc(1) to three digits, the figure that places the workloads'
# occupied point (lambda = 1, R = 1) above the threshold.
LAMBDA_GC_R1_3DIGITS = 0.160


def f_vacant(r: float, lam: float, R: float) -> float:
    return math.exp(-lam * (2.0 * r * math.sinh(R) + 2.0 * math.pi * (math.cosh(R) - 1.0)))


def f_lines(r: float, lam: float) -> float:
    return math.exp(-lam * r)


def f_exact(model: str, r: float, params: dict) -> float:
    if model == "vacant":
        return f_vacant(r, params["lam"], params["R"])
    if model == "lines":
        return f_lines(r, params["lam"])
    raise ValueError(f"no closed-form f for model {model!r}")


def binomial_tail(k: int, n: int, p: float) -> float:
    """Two-sided exact tail of k successes in n trials of probability p:
    2 min(P(X <= k), P(X >= k)), at most 1."""
    from scipy.stats import binom

    return min(1.0, 2.0 * float(min(binom.cdf(k, n, p), binom.sf(k - 1, n, p))))


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"check": name, "ok": bool(ok), "detail": detail}


def gate_f_pointwise(op: dict, out: dict) -> list[dict]:
    res, n = out["results"], int(out["config"]["trials"])
    tail, r = min(
        (binomial_tail(round(fh * n), n, f_exact(op["model"], r, op["params"])), r)
        for r, fh in zip(res["r"], res["f_hat"])
    )
    return [_check("f_pointwise", tail >= TAIL,
                   f"smallest two-sided binomial tail {tail:.3g} at r = {r:g} (bound {TAIL})")]


def alpha_tolerance(r_max: float, trials: int) -> float:
    sd = ALPHA_OCCUPIED_SD.get((float(r_max), int(trials)))
    if sd is None:
        raise KeyError(f"no repeat-seed calibration for r_max={r_max}, trials={trials}")
    return Z_ALPHA * sd


def gate_alpha_occupied(op: dict, out: dict) -> list[dict]:
    res, cfg = out["results"], out["config"]
    err = res["alpha_hat"] - res["alpha_analytic"]
    tol = alpha_tolerance(max(res["r"]), int(cfg["trials"]))
    return [_check("alpha_occupied", abs(err) <= tol,
                   f"alpha_hat - alpha = {err:.3g} (bound {tol:.3g})")]


def gate_s_dist(op: dict, out: dict) -> list[dict]:
    res, n = out["results"], int(out["config"]["trials"])
    ks = KS_C / math.sqrt(n)
    tail = binomial_tail(round(res["neg_inf_mass"] * n), n, res["neg_inf_mass_analytic"])
    return [
        _check("s_dist_ks", res["sup_distance"] <= ks,
               f"sup |G_n - G| = {res['sup_distance']:.3g} (bound {ks:.3g})"),
        _check("s_dist_atom", tail >= TAIL,
               f"P(S = -inf) two-sided binomial tail {tail:.3g} (bound {TAIL})"),
    ]


def gate_sandwich(op: dict, out: dict) -> list[dict]:
    n = out["trials"]
    k_A, k_f, k_Q = (round(out[key] * n) for key in ("p_A", "f_hat", "p_Q"))
    return [_check("sandwich_order", k_Q <= k_f <= k_A,
                   f"P(Q)={out['p_Q']:g} <= f={out['f_hat']:g} <= P(A)={out['p_A']:g}")]


def gate_detect_line(op: dict, out: dict) -> list[dict]:
    res, n = out["results"], int(out["config"]["samples"])
    ok = 0 <= res["detections"] <= n and math.isclose(res["frequency"], res["detections"] / n)
    return [_check("detect_line_range", ok, f"{res['detections']} of {n} samples")]


def gate_rays(op: dict, out: dict) -> list[dict]:
    """Each direction's ray survives with probability f(r), so a sample's
    surviving share of the directions lies in [0, 1] with mean f(r).
    Over independent samples, Hoeffding bounds the chance that the mean
    share is off by t or more by 2 exp(-2 samples t^2), set to TAIL."""
    res, cfg = out["results"], out["config"]
    n_dir, n = int(cfg["directions"]), int(cfg["samples"])
    checks = [_check("rays_range", 0 <= res["mean_survivors"] <= n_dir
                     and 0 <= res["survival_probability"] <= 1,
                     f"mean survivors {res['mean_survivors']:g} of {n_dir}")]
    if op["model"] != "occupied":
        p = f_exact(op["model"], float(cfg["r"]), op["params"])
        err = res["mean_survivors"] / n_dir - p
        t = math.sqrt(math.log(2.0 / TAIL) / (2.0 * n))
        checks.append(_check("rays_mean", abs(err) <= t,
                             f"mean surviving share - f = {err:.3g} (bound {t:.3g})"))
    return checks


def gate_critical(op: dict, out: dict) -> list[dict]:
    res = out["results"]
    lam = res["lambda_critical"]
    checks = [_check("critical_residual",
                     lam > 0 and res["alpha_residual"] < CRITICAL_RESIDUAL,
                     f"|alpha - 1| = {res['alpha_residual']:.3g} (bound {CRITICAL_RESIDUAL})")]
    if op.get("reference"):
        R = op["params"]["R"]
        checks.append(_value_check("critical_value", lam, REFERENCE_LAMBDA_GC[R],
                                   f"lambda_gc({R:g})"))
        if R == 1.0:
            checks.append(_check("critical_3digits", round(lam, 3) == LAMBDA_GC_R1_3DIGITS,
                                 f"lambda_gc(1) = {lam:.6g}, {LAMBDA_GC_R1_3DIGITS} to 3 digits"))
    return checks


def gate_alpha(op: dict, out: dict) -> list[dict]:
    res = out["results"]
    checks = [_check("alpha_residual",
                     res["alpha"] > 0 and abs(res["residual"]) <= ALPHA_RESIDUAL,
                     f"residual {res['residual']:.3g} (bound {ALPHA_RESIDUAL})")]
    if op.get("reference"):
        lam = op["params"]["lam"]
        checks.append(_value_check("alpha_value", res["alpha"], REFERENCE_ALPHA_R1[lam],
                                   f"alpha(lambda={lam:g}, R=1)"))
    return checks


def _value_check(name: str, value: float, expected: float, what: str) -> dict:
    err = value / expected - 1.0
    return _check(name, abs(err) <= VALUE_REL_TOL,
                  f"{what} = {value:.12g}, relative error {err:.3g} (bound {VALUE_REL_TOL})")


GATES = {
    "f_pointwise": gate_f_pointwise,
    "alpha_occupied": gate_alpha_occupied,
    "s_dist": gate_s_dist,
    "sandwich": gate_sandwich,
    "detect_line": gate_detect_line,
    "rays": gate_rays,
    "critical": gate_critical,
    "alpha": gate_alpha,
}


def check_operation(op: dict, out: dict) -> list[dict]:
    return GATES[op["gate"]](op, out)


def check_pass(ops: list[dict], outs: list) -> dict[int, list[dict]]:
    """Gates across the operations of one pass: lambda_gc strictly
    decreasing in R, and the occupied alpha strictly decreasing in
    lambda.  Returns extra checks keyed by operation index; a break in
    the order is charged to the later operation."""
    extra: dict[int, list[dict]] = {}
    for gate, key, value in (("critical", "R", "lambda_critical"), ("alpha", "lam", "alpha")):
        done = sorted(
            (op["params"][key], i) for i, op in enumerate(ops)
            if op["gate"] == gate and outs[i] is not None
        )
        for (x0, i0), (x1, i1) in zip(done, done[1:]):
            v0, v1 = outs[i0]["results"][value], outs[i1]["results"][value]
            extra.setdefault(i1, []).append(_check(
                f"{gate}_monotone", v1 < v0, f"{value}({x1:g}) = {v1:.6g} < {value}({x0:g}) = {v0:.6g}"
            ))
    return extra
