"""Chi-square tail probabilities and critical values.

Self-contained implementation built on the regularized incomplete gamma
function so that behaviour is identical across platforms and remains
accurate for the very large degrees of freedom produced by combined
statistics (millions of degrees of freedom).  The survival function uses
the classic series / continued-fraction split; critical values are found
by bracketed bisection on the survival function, seeded with the
Wilson-Hilferty cube-root approximation, and a Newton root tells the
bisection which side of alpha most of its points fall on without
changing any of its comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

_EPS = 1.0e-15
_TINY = 1.0e-300
_MAX_ITER = 10**6
_NEWTON_STEPS = 30


def _gamma_p_series(a: float, x: float) -> float:
    # Lower regularized gamma P(a, x) by power series, less the prefactor
    # chi2_sf multiplies in; valid for 0 < x < a + 1.
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total
    raise ArithmeticError("incomplete gamma series did not converge")


def _gamma_q_contfrac(a: float, x: float) -> float:
    # Upper regularized gamma Q(a, x) by modified Lentz continued
    # fraction, less the prefactor chi2_sf multiplies in; valid for x >= a + 1.
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError("incomplete gamma continued fraction did not converge")


def _norm_ppf(p: float) -> float:
    # Acklam's rational approximation to the standard normal quantile;
    # only used to seed the critical-value bracket.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p > 1.0 - p_low:
        return -_norm_ppf(1.0 - p)  # 1 - p is exact here and below p_low
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


@dataclass(frozen=True)
class ChiSquareAssessment:
    """One statistic assessed against a chi-square null."""

    statistic: float
    dof: int
    alpha: float
    p_value: float
    critical_value: float
    significant: bool


def _sf_prefactor(x: float, dof: int) -> tuple[float, float]:
    # chi2_sf for finite x >= 0, and its prefactor (x/2)**a * exp(-x/2) /
    # Gamma(a), which is x times the density.
    a, half = dof / 2.0, x / 2.0
    if half == 0.0:  # x is 0 or the least subnormal, whose half rounds to 0
        return 1.0, 0.0
    prefactor = math.exp(-half + a * math.log(half) - math.lgamma(a))
    if half < a + 1.0:
        return 1.0 - _gamma_p_series(a, half) * prefactor, prefactor
    return _gamma_q_contfrac(a, half) * prefactor, prefactor


def chi2_sf(x: float, dof: int) -> float:
    """Upper-tail probability P(chi2_dof > x); 0.0 at x = inf."""
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    if not x >= 0:
        raise ValueError(f"statistic must be non-negative, got {x}")
    if x == math.inf:
        return 0.0
    return _sf_prefactor(x, dof)[0]


def _newton_root(alpha: float, dof: int, x: float) -> float | None:
    # Newton steps in ln x on ln chi2_sf - ln alpha from x, whose slope is
    # -prefactor / sf; a step changes x by at most a factor e.  None
    # unless a step falls below 2**-40 of x within _NEWTON_STEPS.
    log_alpha = math.log(alpha)
    for _ in range(_NEWTON_STEPS):
        sf, prefactor = _sf_prefactor(x, dof)
        if not (sf > 0.0 and prefactor > 0.0):
            return None
        step = max(-1.0, min(1.0, (math.log(sf) - log_alpha) * sf / prefactor))
        x *= math.exp(step)
        if not 0.0 < x < math.inf:
            return None
        if abs(step) < 2.0**-40:
            return x
    return None


@lru_cache(maxsize=4096)
def chi2_critical(alpha: float, dof: int) -> float:
    """The x with chi2_sf(x, dof) == alpha, to within 1e-9 relative.

    Bisection on the strictly decreasing survival function.  The
    Wilson-Hilferty approximation only positions the initial bracket and
    never becomes the returned value.  A Newton root x* only saves work:
    where chi2_sf(x*(1 - eps)) > alpha >= chi2_sf(x*(1 + eps)), a point
    outside that band is above alpha exactly when it lies below x*, and
    only points inside it are evaluated, so every comparison, and the
    result, is the one that evaluating each point gives.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    z = _norm_ppf(min(1.0 - alpha, 1.0 - 2.0**-53))  # 1 - alpha rounds to 1.0 below 2**-54
    t = 1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))
    seed = dof * t**3 if t > 0.0 else 0.5

    # Rounding leaves the computed sf non-monotone only within a narrow
    # band around the root, which widens with dof: sampled, at most 1.2e-13
    # relative up to dof 10**4, 1.9e-12 at 10**6 and 8.8e-12 at 10**7
    # (alpha 0.5, the widest).  eps is at least 30 times that.  Without a
    # checked band every point is evaluated.
    below, above = 0.0, math.inf
    root = _newton_root(alpha, dof, seed)
    if root is not None:
        eps = 1e-11 * max(1.0, math.sqrt(dof) / 100.0)
        if chi2_sf(root * (1.0 - eps), dof) > alpha >= chi2_sf(root * (1.0 + eps), dof):
            below, above = root * (1.0 - eps), root * (1.0 + eps)

    def exceeds(x: float) -> bool:  # chi2_sf(x, dof) > alpha
        return x <= below or (x < above and chi2_sf(x, dof) > alpha)

    lo = 0.0
    hi = max(seed, 1.0)
    while exceeds(hi):
        hi *= 2.0
    if seed > 0.0 and seed < hi and exceeds(seed):
        lo = seed
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if exceeds(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def assess(statistic: float, dof: int, alpha: float = 0.05) -> ChiSquareAssessment:
    """Bundle p-value, critical value, and the significance verdict.

    A statistic at or below zero (finite-sample second differences can be
    negative) keeps its sign and gets p = 1, the survival function there.
    """
    p = 1.0 if statistic <= 0.0 else chi2_sf(statistic, dof)
    crit = chi2_critical(alpha, dof)
    return ChiSquareAssessment(
        statistic=float(statistic),
        dof=int(dof),
        alpha=float(alpha),
        p_value=p,
        critical_value=crit,
        significant=bool(statistic > crit),
    )
