"""Exact prime sums over F_q[T] and their closed-form comparisons.

Everything here is a finite sum over prime degrees n <= log_q x, with the
per-degree prime count taken from the exact counting formula, so all values
are exact up to floating-point rounding.  The classical estimates these sums
are compared against carry unspecified bounded remainders; the sweep
machinery records the observed sup-defects as regression constants instead
of asserting universal bounds.
"""

from __future__ import annotations

import math

import numpy as np

from ffmoments.ffpoly import FieldSpec, degree_cutoff, prime_count_exact
from ffmoments.lfunc import zeta_A
from ffmoments.moments import theta_bar


def _counts(q: int, h: int) -> list[int]:
    f = FieldSpec(q)
    return [prime_count_exact(f, n) for n in range(1, h + 1)]


def logp_sum(q: int, x) -> float:
    """sum over |P| <= x of log|P| / |P|, exactly:
    sum_{n<=h} pi(n) n log q / q^n."""
    h = degree_cutoff(q, x)
    lnq = math.log(q)
    terms = [c * n * lnq / q**n for n, c in enumerate(_counts(q, h), start=1)]
    return float(np.sum(np.array(terms))) if terms else 0.0


def recip_sum(q: int, x) -> float:
    """sum over |P| <= x of 1/|P|, exactly: sum_{n<=h} pi(n) / q^n."""
    h = degree_cutoff(q, x)
    if h < 1:
        raise ValueError("cutoff must be at least q")
    terms = [c / q**n for n, c in enumerate(_counts(q, h), start=1)]
    return float(np.sum(np.array(terms)))


def mertens_cos_sum(q: int, x, alpha: float) -> float:
    """sum over |P| <= x of cos(alpha log|P|) / |P|, exactly:
    sum_{n<=h} cos(alpha n log q) pi(n) / q^n."""
    h = degree_cutoff(q, x)
    if h < 1:
        raise ValueError("cutoff must be at least q")
    lnq = math.log(q)
    terms = [
        math.cos(alpha * n * lnq) * c / q**n
        for n, c in enumerate(_counts(q, h), start=1)
    ]
    return float(np.sum(np.array(terms)))


def F_sum(h: int, theta: float) -> float:
    """Partial cosine sum F(h, theta) = sum_{n=1}^{h} cos(n theta) / n."""
    if h < 1:
        raise ValueError("F requires h >= 1")
    n = np.arange(1, h + 1, dtype=np.float64)
    return float(np.sum(np.cos(n * theta) / n))


def F_sum_cumulative(h_max: int, thetas: np.ndarray) -> np.ndarray:
    """F(h, theta) for all h = 1..h_max at once; rows indexed by h-1."""
    if h_max < 1:
        raise ValueError("F requires h >= 1")
    n = np.arange(1, h_max + 1, dtype=np.float64)[:, None]
    return np.cumsum(np.cos(n * np.asarray(thetas)[None, :]) / n, axis=0)


def log_min_estimate(q: int, x, alpha: float) -> float:
    """log min(log x, 1/theta_bar(alpha log q)), the structural comparison
    value for the cosine prime sum (theta_bar(0) resolves the min to log x)."""
    h = degree_cutoff(q, x)
    logx = h * math.log(q)
    tb = theta_bar(alpha * math.log(q))
    inner = logx if tb == 0 else min(logx, 1.0 / tb)
    return math.log(inner)


def zeta_log_estimate(q: int, x, alpha: float) -> float:
    """log |zeta_A(1 + 1/log x + i alpha)| via the closed form."""
    h = degree_cutoff(q, x)
    if h < 1:
        raise ValueError("cutoff must be at least q")
    s = 1 + 1.0 / (h * math.log(q)) + 1j * alpha
    return math.log(abs(zeta_A(q, s)))


def prime_power_tail(q: int, x, truncation_multiple: int = 4) -> float:
    """The smoothing defect
    sum_{|P|<=x} (1/|P| - 1/|P|^(1+1/log x)) + sum_{|P|>x} 1/|P|^(1+1/log x),
    with the infinite tail truncated at degree truncation_multiple * h."""
    h = degree_cutoff(q, x)
    if h < 1:
        raise ValueError("cutoff must be at least q")
    f = FieldSpec(q)
    head = [
        prime_count_exact(f, n) * (q**-n - q**-n * math.exp(-n / h))
        for n in range(1, h + 1)
    ]
    tail = [
        prime_count_exact(f, n) * q**-n * math.exp(-n / h)
        for n in range(h + 1, truncation_multiple * h + 1)
    ]
    return float(np.sum(np.array(head + tail)))


def mertens_grid_sweep(
    q: int, h_min: int, h_max: int, alpha_points: int
) -> tuple[list[list], float, float, dict[int, float]]:
    """Cosine prime sum vs its two estimates over the standard grid: h from
    h_min..h_max and alpha_points values of alpha covering exactly one
    period [0, 2*pi/log q).

    Returns (rows, sup |defect vs zeta form|, sup |defect vs min form|,
    per-h max of both defects).  Shared by the CLI suite and the acceptance
    tests so the committed sup constants reproduce bit-for-bit.
    """
    lnq = math.log(q)
    period = 2 * math.pi / lnq
    alphas = [i * period / alpha_points for i in range(alpha_points)]
    rows: list[list] = []
    sup_zeta = -math.inf
    sup_min = -math.inf
    per_h: dict[int, float] = {}
    for h in range(h_min, h_max + 1):
        x = q**h
        for alpha in alphas:
            s = mertens_cos_sum(q, x, alpha)
            e1 = zeta_log_estimate(q, x, alpha)
            e2 = log_min_estimate(q, x, alpha)
            d1, d2 = s - e1, s - e2
            rows.append([q, h, alpha, s, e1, e2, d1, d2])
            sup_zeta = max(sup_zeta, abs(d1))
            sup_min = max(sup_min, abs(d2))
            per_h[h] = max(per_h.get(h, -math.inf), abs(d1), abs(d2))
    return rows, sup_zeta, sup_min, per_h


def fsum_defect_sup(h_max: int, theta_points: int) -> float:
    """sup over h <= h_max and a uniform theta grid on [0, 2*pi) of
    |F(h, theta) - log min(h, 1/theta_bar(theta))|."""
    thetas = np.array(
        [2 * math.pi * i / theta_points for i in range(theta_points)]
    )
    F = F_sum_cumulative(h_max, thetas)
    hs = np.arange(1, h_max + 1, dtype=np.float64)[:, None]
    tbar = np.array([theta_bar(t) for t in thetas])
    inv = np.where(tbar > 0, 1.0 / np.where(tbar > 0, tbar, 1.0), np.inf)
    target = np.log(np.minimum(hs, inv[None, :]))
    return float(np.max(np.abs(F - target)))


def tail_remainder_bound(q: int, x, truncation_degree: int) -> float:
    """Geometric bound on the part of the prime-power tail dropped beyond
    truncation_degree: sum_{n > N} pi(n) q^(-n) e^(-n/h) <= sum e^(-n/h)/n."""
    h = degree_cutoff(q, x)
    N = truncation_degree
    if N < h:
        raise ValueError("truncation must not cut into the head")
    r = math.exp(-1.0 / h)
    # pi(n) q^-n <= 1/n <= 1/(N+1) for n > N; geometric series in r
    return r ** (N + 1) / ((N + 1) * (1 - r))
