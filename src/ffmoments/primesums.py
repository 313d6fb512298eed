"""Exact prime sums over F_q[T] and their closed-form comparisons.

Every sum here runs over the prime degrees n against one weight vector per
q, w[n] = pi(n) / q^n, with pi(n) from the exact counting formula, so all
values are exact up to floating-point rounding.  The sum up to x = q^h of
w[n] times a degree factor (1 for the reciprocal sum, n log q for the
log-weighted sum, cos(alpha n log q) for the cosine sum) is the cumulative
sum over n read at h: one cumsum gives every cutoff h at once, and for the
cosine sum every point of the (h, alpha) grid.  The smoothing tail weights
w[n] by e^(-n/h), which depends on both n and h, so it is one masked sum
per row of an (h, n) array.  The classical estimates these sums are
compared against carry unspecified bounded remainders; the sweeps record
the observed sup-defects as regression constants instead of asserting
universal bounds.
"""

from __future__ import annotations

import math

import numpy as np

from ffmoments.ffpoly import FieldSpec, prime_count_exact
from ffmoments.moments import theta_bar

# the prime-power tail beyond x = q^h is summed up to degree TAIL_MULTIPLE * h
TAIL_MULTIPLE = 4
# cutoffs h per cumulative-sum block of fsum_defect_sup; bounds its memory
_FSUM_BLOCK = 128


def _prime_weights(q: int, n_max: int) -> np.ndarray:
    """w[n] = pi(n) / q^n for n = 0..n_max; w[0] = 0, no prime has degree 0."""
    if n_max < 0:
        raise ValueError("cutoff degree must be at least 0")
    f = FieldSpec(q)
    counts = [prime_count_exact(f, n) / q**n for n in range(1, n_max + 1)]
    return np.array([0.0, *counts])


def logp_sum(q: int, h_max: int) -> np.ndarray:
    """sum over |P| <= q^h of log|P| / |P| = sum_{n<=h} pi(n) n log q / q^n,
    for every cutoff h = 0..h_max (index h)."""
    return np.cumsum(_prime_weights(q, h_max) * np.arange(h_max + 1) * math.log(q))


def recip_sum(q: int, h_max: int) -> np.ndarray:
    """sum over |P| <= q^h of 1/|P| = sum_{n<=h} pi(n) / q^n, for every
    cutoff h = 0..h_max (index h)."""
    return np.cumsum(_prime_weights(q, h_max))


def F_sum_cumulative(h_max: int, thetas: np.ndarray) -> np.ndarray:
    """F(h, theta) = sum_{n=1}^{h} cos(n theta) / n for all h = 1..h_max at
    once; rows indexed by h-1."""
    if h_max < 1:
        raise ValueError("F requires h >= 1")
    n = np.arange(1, h_max + 1, dtype=np.float64)[:, None]
    return np.cumsum(np.cos(n * np.asarray(thetas)[None, :]) / n, axis=0)


def _log_min(length, tbar):
    """log min(length, 1/tbar), elementwise; a vanishing tbar resolves the
    min to length."""
    with np.errstate(divide="ignore"):
        return np.log(np.minimum(length, 1.0 / tbar))


def prime_power_tail(q: int, h_max: int) -> np.ndarray:
    """The smoothing defect
    sum_{|P|<=x} (1/|P| - 1/|P|^(1+1/log x)) + sum_{|P|>x} 1/|P|^(1+1/log x)
    for every cutoff x = q^h, h = 1..h_max (index h-1), with the infinite
    tail truncated at degree TAIL_MULTIPLE * h.  At degree n the smoothing
    factor |P|^(-1/log x) is e^(-n/h)."""
    n = np.arange(TAIL_MULTIPLE * h_max + 1)
    h = np.arange(1, h_max + 1)[:, None]
    smooth = np.exp(-n / h)
    terms = np.where(n <= h, 1 - smooth, smooth) * (n <= TAIL_MULTIPLE * h)
    return np.sum(_prime_weights(q, n[-1]) * terms, axis=1)


def dropped_tail(q: int, h_max: int) -> np.ndarray:
    """The part of the tail sum_{n > N} pi(n) q^(-n) e^(-n/h) that
    prime_power_tail drops beyond N = TAIL_MULTIPLE * h, for every cutoff
    h = 1..h_max (index h-1).  It is summed out to degree 10 TAIL_MULTIPLE
    h_max, beyond which what is left is at most e^(-36) times
    tail_remainder_bound(h, N)."""
    n = np.arange(10 * TAIL_MULTIPLE * h_max + 1)
    h = np.arange(1, h_max + 1)[:, None]
    terms = np.exp(-n / h) * (n > TAIL_MULTIPLE * h)
    return np.sum(_prime_weights(q, n[-1]) * terms, axis=1)


def mertens_grid_sweep(
    q: int, h_min: int, h_max: int, alpha_points: int
) -> tuple[list[np.ndarray], float, float, np.ndarray]:
    """The cosine prime sum sum_{|P|<=x} cos(alpha log|P|) / |P| against its
    zeta form log|zeta_A(1 + 1/log x + i alpha)| = -log|1 - e^(-1/h - i alpha
    log q)| and its min form log min(log x, 1/theta_bar(alpha log q)), over
    the grid x = q^h for h = h_min..h_max and alpha_points values of alpha
    covering exactly one period [0, 2*pi/log q).

    Returns the grid as the eight flat columns of PRIMESUM_COLUMNS (q, h,
    alpha, the sum, the zeta and min estimates and the sum's defect against
    each), h-major; the sup of each |defect|; and per h = h_min..h_max (index
    h - h_min) the max of both.  Shared by the CLI suite and the acceptance
    tests so the committed sup constants reproduce bit-for-bit.
    """
    lnq = math.log(q)
    alphas = np.arange(alpha_points) * (2 * math.pi / lnq) / alpha_points
    cosines = np.cos(np.outer(np.arange(h_max + 1), alphas) * lnq)
    sums = np.cumsum(_prime_weights(q, h_max)[:, None] * cosines, axis=0)[h_min:]
    h = np.arange(h_min, h_max + 1)[:, None]
    zeta = -np.log(np.abs(1 - np.exp(-1.0 / h - 1j * lnq * alphas)))
    log_min = _log_min(h * lnq, theta_bar(alphas * lnq))
    d_zeta, d_min = sums - zeta, sums - log_min
    grid = np.broadcast_arrays(q, h, alphas, sums, zeta, log_min, d_zeta, d_min)
    sup = np.abs([d_zeta, d_min])
    sup_zeta, sup_min = float(np.max(sup[0])), float(np.max(sup[1]))
    return [a.ravel() for a in grid], sup_zeta, sup_min, np.max(sup, axis=(0, 2))


def fsum_defect_sup(h_max: int, theta_points: int) -> float:
    """sup over h <= h_max and a uniform theta grid on [0, 2*pi) of
    |F(h, theta) - log min(h, 1/theta_bar(theta))|.  F is summed over blocks
    of _FSUM_BLOCK cutoffs h, each cumulative sum started from the previous
    block's last row.  np.cumsum adds row by row, so every F(h, theta) is the
    same float as in F_sum_cumulative, and the working memory does not grow
    with h_max."""
    if h_max < 1:
        raise ValueError("F requires h >= 1")
    thetas = 2 * math.pi * np.arange(theta_points) / theta_points
    tbar = theta_bar(thetas)
    sup, last = 0.0, np.zeros((1, theta_points))
    for start in range(1, h_max + 1, _FSUM_BLOCK):
        n = np.arange(start, min(start + _FSUM_BLOCK, h_max + 1), dtype=np.float64)
        terms = np.cos(n[:, None] * thetas[None, :]) / n[:, None]
        F = np.cumsum(np.concatenate([last, terms]), axis=0)[1:]
        last = F[-1:]
        sup = np.maximum(sup, np.max(np.abs(F - _log_min(n[:, None], tbar))))
    return float(sup)


def tail_remainder_bound(h, truncation_degree):
    """Geometric bound on the part of the prime-power tail at x = q^h dropped
    beyond truncation_degree (elementwise on arrays):
    sum_{n > N} pi(n) q^(-n) e^(-n/h) <= sum e^(-n/h)/n."""
    N = truncation_degree
    if np.any(N < h):
        raise ValueError("truncation must not cut into the head")
    r = np.exp(-1.0 / h)
    # pi(n) q^-n <= 1/n <= 1/(N+1) for n > N; geometric series in r
    return r ** (N + 1) / ((N + 1) * (1 - r))
