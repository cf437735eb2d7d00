"""Chi-square tail probabilities and critical values.

Self-contained implementation built on the regularized incomplete gamma
function so that behaviour is identical across platforms and remains
accurate for the very large degrees of freedom produced by combined
statistics (millions of degrees of freedom).  The survival function uses
the classic series / continued-fraction split; critical values are found
by bracketed bisection on the survival function, seeded with the
Wilson-Hilferty cube-root approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

_EPS = 1.0e-15
_TINY = 1.0e-300
_MAX_ITER = 10**6


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


def chi2_sf(x: float, dof: int) -> float:
    """Upper-tail probability P(chi2_dof > x)."""
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    if x < 0:
        raise ValueError(f"statistic must be non-negative, got {x}")
    a, half = dof / 2.0, x / 2.0
    if half == 0.0:  # x is 0 or the least subnormal, whose half rounds to 0
        return 1.0
    prefactor = math.exp(-half + a * math.log(half) - math.lgamma(a))
    if half < a + 1.0:
        return 1.0 - _gamma_p_series(a, half) * prefactor
    return _gamma_q_contfrac(a, half) * prefactor


@lru_cache(maxsize=4096)
def chi2_critical(alpha: float, dof: int) -> float:
    """The x with chi2_sf(x, dof) == alpha, to within 1e-9 relative.

    Bisection on the strictly decreasing survival function.  The
    Wilson-Hilferty approximation only positions the initial bracket and
    never becomes the returned value.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    z = _norm_ppf(min(1.0 - alpha, 1.0 - 2.0**-53))  # 1 - alpha rounds to 1.0 below 2**-54
    t = 1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))
    seed = dof * t**3 if t > 0.0 else 0.5
    lo = 0.0
    hi = max(seed, 1.0)
    while chi2_sf(hi, dof) > alpha:
        hi *= 2.0
    if seed > 0.0 and seed < hi and chi2_sf(seed, dof) > alpha:
        lo = seed
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_sf(mid, dof) > alpha:
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
