"""Closed forms and the integral-equation solver for the decay exponents.

The probability f(r) that a geodesic segment of length r stays inside
the random set decays like e^{-alpha r}.  For the vacant set alpha has
the closed form 2 lambda sinh R; for the line-process complement
f(r) = e^{-lambda r} exactly.  For the occupied set alpha is the root
beta of int_0^{2R} e^{beta s} G'(s) ds = 1, G the hitting-time law of
the first coverage gap.  The left side increases in beta, so alpha > 1
exactly where it is below one at beta = 1: lambda_gc, where alpha = 1,
is the root in lambda of the equation at beta = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import ball_area, tube_area
from .sampling import ModelParams

__all__ = [
    "AlphaResult",
    "SolverError",
    "f_vacant",
    "alpha_vacant",
    "lambda_gv",
    "area_crescent",
    "area_crescent_closed_form",
    "hitting_cdf",
    "alpha_occupied",
    "lambda_gc",
    "f_grassmann",
    "lrp_edge_measure",
    "lrp_edge_prob",
]


class SolverError(RuntimeError):
    """Root bracketing or residual control failed."""


@dataclass(frozen=True)
class AlphaResult:
    """Occupied-set decay exponent with solver diagnostics.

    ``residual`` is the value of the defining integral minus one at the
    returned exponent and must be below 1e-10 in magnitude.
    ``iterations`` counts the residual evaluations after the first: the
    doubling steps of the bracket search and then the Newton or
    bisection steps inside the bracket.
    """

    alpha: float
    residual: float
    iterations: int


# absolute and relative tolerance and subdivision limit of the adaptive
# quadratures, and the Gauss-Legendre order of the exponent solver
QUAD_TOL = 1e-12
QUAD_LIMIT = 200
GAUSS_NODES = 160


def f_vacant(r: float, params: ModelParams) -> float:
    """P(segment of length r lies in the vacant set):
    exp(-lambda (2 r sinh R + full ball area)).

    The r-independent factor is the area of the two half-disk end caps
    of the segment's R-neighborhood; at r = 0 this is the probability
    that a fixed point is vacant.
    """
    if not r >= 0:
        raise ValueError("segment length must be nonnegative")
    lam, R = params.intensity, params.radius
    return math.exp(-lam * tube_area(R, r))


def alpha_vacant(params: ModelParams) -> float:
    """Vacant-set decay exponent 2 lambda sinh R."""
    return 2.0 * params.intensity * math.sinh(params.radius)


def _check_R(R: float) -> None:
    if not R > 0:
        raise ValueError("R must be positive")
    if R == math.inf:
        raise ValueError("R must be finite")


def lambda_gv(R: float) -> float:
    """Critical intensity for lines in the vacant set, 1/(2 sinh R)."""
    _check_R(R)
    return 1.0 / (2.0 * math.sinh(R))


def _band_density(x, R: float):
    """2 sqrt(cosh^2 R / cosh^2 x - 1), elementwise: the area of B(o, R)
    per unit foot parameter at foot x along a geodesic through o."""
    return 2.0 * np.sqrt(np.maximum(np.cosh(R) ** 2 / np.cosh(x) ** 2 - 1.0, 0.0))


def area_crescent(t: float, R: float) -> float:
    """Area of the crescent B(gamma(0), R) \\ B(gamma(t), R).

    Equals the area of the band of the ball whose foot parameter lies
    in [-t/2, t/2]; for t >= 2R the balls are disjoint and the crescent
    is the whole ball.  Computed by adaptive quadrature of the band
    density, whose square-root zero at s = R is integrable and handled
    by subdivision.  The density is 2 sinh R (1 - coth^2 R s^2 / 2 + ...),
    so below t = 1e-8 tanh R the first-order area 2 t sinh R is exact to
    rounding and is returned instead, as the quadrature's error estimate
    underflows there.  The hitting law and the exponent solvers use
    ``area_crescent_closed_form``; this quadrature is its oracle.
    """
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    if t >= 2.0 * R:
        return ball_area(R)
    if t < 1e-8 * math.tanh(R):
        return 2.0 * t * math.sinh(R)
    from scipy import integrate  # imported here, off the CLI import path
    val, _ = integrate.quad(
        _band_density, -t / 2.0, t / 2.0, args=(R,),
        epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=QUAD_LIMIT,
    )
    return float(val)


def area_crescent_closed_form(t, R: float):
    """Closed form of area_crescent, elementwise over an array of t:
    4 [k arctan(k u / s) - arctan(u / s)] with k = cosh R, u = sinh(t/2)
    and s = sqrt(sinh^2 R - u^2), the whole ball 2 pi (k - 1) for t >= 2R.
    It is written as 4 [(k - 1) atan2(k u, s) + atan2((k - 1) u s, s^2 +
    k u^2)], the difference of the arctangents taken as one, with
    k - 1 = 2 sinh^2(R/2) and s computed without cancellation: a sum of
    nonnegative terms, within a few units in the last place of the exact
    area at the given t and R, from t near 0 to t near 2R."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("t must be nonnegative")
    k, k1 = math.cosh(R), 2.0 * math.sinh(R / 2.0) ** 2
    h = np.minimum(t, 2.0 * R) / 2.0
    u = np.sinh(h)
    # sinh R - sinh h = 2 cosh((R + h)/2) sinh((R - h)/2)
    s = np.sqrt(2.0 * np.cosh((R + h) / 2.0) * np.sinh((R - h) / 2.0) * (math.sinh(R) + u))
    out = 4.0 * (k1 * np.arctan2(k * u, s) + np.arctan2(k1 * u * s, s * s + k * u * u))
    return float(out) if out.ndim == 0 else out


def hitting_cdf(t: float, params: ModelParams) -> float:
    """G(t) = P(first coverage gap parameter S falls in (0, t)):
    1 - exp(-lambda area of the crescent), as -expm1: within 2e-16
    relative of 1 - exp(-lambda A) for the area A as computed."""
    return -math.expm1(-params.intensity * area_crescent_closed_form(t, params.radius))


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1], read-only; building it
    costs milliseconds, far more than a solve."""
    x, wq = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = wq.flags.writeable = False
    return x, wq


@lru_cache(maxsize=8)
def _exponent_nodes(R: float):
    """Gauss-Legendre nodes for int_0^{2R} e^{beta s} G'(s) ds after the
    substitution s = 2R - w^2, which removes the square-root zero of G'
    at s = 2R and makes the rule converge spectrally.  The crescent
    areas at the nodes come from the closed form.  Read-only and cached,
    so that lambda_gc, its alpha check and the caller's share them."""
    x, wq = _gauss_legendre(GAUSS_NODES)
    wmax = math.sqrt(2.0 * R)
    w = 0.5 * wmax * (x + 1.0)
    jac = 0.5 * wmax * wq * 2.0 * w
    s = 2.0 * R - w * w
    area = area_crescent_closed_form(s, R)
    rate = _band_density(s / 2.0, R)
    for a in (s, jac, area, rate):
        a.flags.writeable = False
    return s, jac, area, rate


def alpha_occupied(params: ModelParams) -> AlphaResult:
    """Occupied-set exponent: the unique beta > 0 with
    F(beta) = int_0^{2R} e^{beta s} G'(s) ds - 1 = 0.

    F(0) = P(S > 0) - 1 < 0 and F is increasing and convex, so a
    doubling search brackets the root in [lo, hi], and Newton steps
    from hi fall monotonically onto it.  A step that leaves (lo, hi],
    as rounding can make it near a root at 0, is replaced by the
    bracket's midpoint, and each step moves lo or hi by the sign of F.
    The solve stops after a step of at most 1e-12, once the bracket is
    that narrow, or at a non-finite F; a residual not within 1e-10
    raises SolverError.  Where e^{beta s} overflows, F is NaN and the
    solve raises without numpy's overflow warnings.

    The root is checked against the tangent of F at 0: F is convex with
    F(0) = -e^{-lambda area B(R)}, so alpha <= e^{-lambda area B(R)} / F'(0)
    with F'(0) = int s G'(s) ds on the same nodes, which can only loosen
    the bound where they miss mass.  A root above it, by more than
    1e-9 relative and 1e-12 absolute, raises SolverError.  This refuses
    the wrong roots that the nodes give once lambda area B(R) is large
    (above 1000 wherever seen over R in [0.05, 7] and lambda in
    [1e-3, 1e3]), where G' has its mass near s = 0: at (lambda, R) =
    (1000, 1) they give 0.471 against a bound below 1e-12.
    """
    lam, R = params.intensity, params.radius
    if not lam > 0:
        raise ValueError("occupied exponent needs positive intensity")
    s, jac, area, rate = _exponent_nodes(R)
    # F(beta) = w . e^{beta s} - 1 and F'(beta) = (w s) . e^{beta s}
    w = jac * (lam * rate * np.exp(-lam * area))
    ws = w * s

    def residual_and_slope(beta):
        e = np.exp(beta * s)
        return float(np.dot(w, e)) - 1.0, float(np.dot(ws, e))

    with np.errstate(over="ignore", invalid="ignore"):
        iterations = 0
        lo, hi = 0.0, 1.0
        res, slope = residual_and_slope(hi)
        while res < 0.0:
            lo, hi = hi, 2.0 * hi
            iterations += 1
            if hi > 1e6:
                raise SolverError(
                    f"no exponent bracket below 1e6 for lambda={lam}, R={R}"
                )
            res, slope = residual_and_slope(hi)
        beta = hi
        while math.isfinite(res) and hi - lo > 1e-12:
            new = beta - res / slope
            if not lo < new <= hi:
                new = 0.5 * (lo + hi)
            step, beta = abs(new - beta), new
            res, slope = residual_and_slope(beta)
            iterations += 1
            if res < 0.0:
                lo = beta
            else:
                hi = beta
            if step <= 1e-12:
                break
    if not abs(res) <= 1e-10:
        raise SolverError(f"exponent residual {res:.3e} is not within 1e-10")
    bound = math.exp(-lam * ball_area(R)) / float(ws.sum())
    if beta > bound * (1.0 + 1e-9) + 1e-12:
        raise SolverError(
            f"exponent {beta:.6g} breaks the tangent bound {bound:.3e} "
            f"for lambda={lam}, R={R}"
        )
    return AlphaResult(beta, res, iterations)


def lambda_gc(R: float) -> float:
    """Critical intensity for lines in the occupied set: the lambda at
    which the occupied exponent equals one.

    The renewal residual int_0^{2R} e^{beta s} G'(s) ds - 1 increases
    in beta and vanishes at alpha(lambda), so its sign at beta = 1 is
    that of 1 - alpha(lambda): bracket and bisection on it need no alpha.
    At beta = 1 it is lambda (c . e^{-lambda area}) - 1 with the node
    weights c = jac rate e^s formed once.  The bisection stops at a
    width relative to lambda, since lambda_gc spans many decades (about
    500 at R = 0.05, about 2e-6 at R = 6); it takes the same steps as a
    bisection on alpha itself, so its value does not depend on how
    alpha is solved.  Over R in [0.05, 8], |alpha(lambda_gc) - 1| < 1e-8;
    else SolverError.
    """
    _check_R(R)
    s, jac, area, rate = _exponent_nodes(R)
    c = jac * rate * np.exp(s)

    def residual(lam):
        return lam * float(np.dot(c, np.exp(-lam * area))) - 1.0

    lo = hi = 1.0 / (2.0 * math.sinh(R))  # vacant threshold as a starting scale
    if residual(lo) < 0.0:
        while residual(hi) < 0.0:
            lo, hi = hi, 2.0 * hi
            if hi > 1e9:
                raise SolverError(f"no lambda_gc bracket below 1e9 for R={R}")
    else:
        while residual(lo) > 0.0:
            hi, lo = lo, lo / 2.0
            if lo < 1e-12:
                raise SolverError(f"no lambda_gc bracket above 1e-12 for R={R}")
    while hi - lo > 1e-11 * hi:
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    check = alpha_occupied(ModelParams(lam, R))
    if abs(check.alpha - 1.0) > 1e-8:
        raise SolverError(f"lambda_gc residual |alpha-1| = {abs(check.alpha-1.0):.3e}")
    return lam


def f_grassmann(r: float, intensity: float) -> float:
    """P(segment of length r avoids every line of the process) = e^{-lambda r}."""
    if not (r >= 0 and intensity >= 0):
        raise ValueError("segment length and intensity must be nonnegative")
    return math.exp(-intensity * r)


def lrp_edge_measure(x: int, y: int) -> float:
    """Measure of lines with one ideal endpoint in [x, x+1] and the
    other in [y, y+1]: log(n^2 / ((n-1)(n+1))) for gap n = y - x, as
    log1p(1 / ((n-1)(n+1))), within 2e-16 relative at any integer gap."""
    n = y - x
    if n < 2:
        raise ValueError("intervals must be disjoint and non-adjacent (y >= x + 2)")
    return math.log1p(1 / ((n - 1) * (n + 1)))


def lrp_edge_prob(x: int, y: int, intensity: float, c: float) -> float:
    """Edge probability of the induced long-range percolation on Z:
    c (1 - e^{-lambda measure}), as -expm1 within 4e-16 relative;
    asymptotic to c/|x-y|^2 at lambda = 1.  A probability needs
    lambda >= 0 and c in [0, 1]."""
    if not intensity >= 0:
        raise ValueError("intensity must be nonnegative")
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"edge retention constant c must lie in [0, 1], got {c}")
    return c * -math.expm1(-intensity * lrp_edge_measure(x, y))
