"""Shifted moments over the primitive family, the two bound forms they are
compared against, character-sum moments, the contour-integral identity for
partial sums, and the circle-integral moment.

Each family is one array pass per quantity: shifted_moment evaluates |L|
at the shifts of all specs with one product and slices it per spec,
circle_angle_moments does the same at the circle angles, perron_partial_sum
takes one product of the coefficient rows with the circle quadrature's
weights, and integral_moment computes the per-character circle integrals once
for all exponents and once per conjugate pair, sampling |L| on the uniform
circle grid by one product of each block of CIRCLE_ROWS (32) coefficient
rows with the powers of u on the grid, so that its transient memory stays
under 1 MB at 1024 points whatever phi(Q) is.

What depends only on q, deg Q and the specs or sampling parameters is
computed once per process by memoised helpers that return read-only
arrays: the Theorem 1.1 base and pair factors, the Perron quadrature
weights, and, in lfunc (abs_l_at, shared with lfun's log|L|), the
powers of u at the shift points, the circle angles and the circle grid.

All sums over characters run in canonical character-index order with
pairwise summation, so family sweeps are reproducible and parallel runs
reduce to the same bits as serial ones.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ffmoments.chargroup import DirichletChar, Modulus
from ffmoments.lfunc import PrimitiveFamily, _circle_powers, _read_only, abs_l_at, zeta_A
from ffmoments.ffpoly import degree_cutoff, enumerate_monic

# the interpreter's built-in sha256: importing hashlib loads OpenSSL, about
# 3.5 MB of resident memory, to hash a few short strings
try:
    from _sha2 import sha256 as _sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256


def sha256_hex(text: str, length: int) -> str:
    """The first `length` hex digits of the sha256 of text in UTF-8."""
    return _sha256(text.encode()).hexdigest()[:length]


def theta_bar(theta):
    """Distance from theta to the nearest integer multiple of 2*pi,
    elementwise on arrays."""
    r = np.mod(theta, 2 * math.pi)
    return np.minimum(r, 2 * math.pi - r)


@dataclass(frozen=True)
class ShiftSpec:
    """An even-length tuple of positive exponents a_j with shifts t_j."""

    a: tuple[float, ...]
    t: tuple[float, ...]

    def __post_init__(self):
        if len(self.a) != len(self.t):
            raise ValueError("exponents and shifts must pair up")
        if len(self.a) < 2 or len(self.a) % 2:
            raise ValueError("need an even number 2k >= 2 of shift pairs")
        if any(a <= 0 for a in self.a):
            raise ValueError("exponents must be positive")

    @property
    def half_k(self) -> int:
        return len(self.a) // 2

    @property
    def sum_a_sq(self) -> float:
        return float(sum(a * a for a in self.a))

    def to_dict(self) -> dict:
        return {"a": list(self.a), "t": list(self.t)}

    @classmethod
    def from_dict(cls, d: dict) -> "ShiftSpec":
        extra = set(d) - {"a", "t"}
        if extra:
            raise ValueError(f"unknown shift spec fields: {sorted(extra)}")
        return cls(a=tuple(float(x) for x in d["a"]), t=tuple(float(x) for x in d["t"]))

    @functools.cached_property
    def digest(self) -> str:
        return sha256_hex(json.dumps(self.to_dict(), sort_keys=True), 12)


# ---------------------------------------------------------------------------
# Shifted moments and the two bound forms
# ---------------------------------------------------------------------------


def spec_columns(specs) -> tuple[list[float], np.ndarray, np.ndarray]:
    """The shifts t_j and exponents a_j of all specs in order, one column
    each, and the column where each spec's block starts."""
    ts = [t for spec in specs for t in spec.t]
    a = np.array([a for spec in specs for a in spec.a], dtype=np.float64)
    return ts, a, np.cumsum([0] + [len(spec.a) for spec in specs])[:-1]


def _spec_moments(family: PrimitiveFamily, specs, circle: bool) -> np.ndarray:
    """Per spec, the sum over primitive chi of prod_j |L(u_j, chi)|^(a_j) at
    its shift points u_j (see lfunc.abs_l_at), all specs in one product."""
    ts, a, starts = spec_columns(specs)
    mags = abs_l_at(family.coeffs, family.modulus.field.q, ts, circle)
    prods = np.multiply.reduceat(mags**a, starts, axis=1)
    return np.sum(np.ascontiguousarray(prods.T), axis=1)


def shifted_moment(family: PrimitiveFamily, specs) -> np.ndarray:
    """Per spec, the sum over primitive chi of
    prod_j |L(1/2 + i t_j, chi)|^(a_j); |L| at the shifts of all specs is
    one product."""
    if family.n_primitive == 0:
        raise ValueError("modulus has no primitive characters")
    return _spec_moments(family, specs, circle=False)


def circle_angle_moments(family: PrimitiveFamily, specs) -> np.ndarray:
    """The shifted moments of each spec restated on the critical circle:
    |L| at u = e^(i theta_j)/sqrt(q) with theta_j = -t_j log q, without
    reducing t mod the period (Cor 1.2)."""
    return _spec_moments(family, specs, circle=True)


@functools.cache
def _theorem1_factors(q: int, degree: int, specs: tuple[ShiftSpec, ...]):
    """Per spec, the base (log|Q|)^(sum a_j^2 / 4) and, per pair j < l in
    order, the zeta factor |zeta_A(1 + i(t_j - t_l) + 1/log|Q|)|^(a_j a_l / 2)
    and the min factor min(log|Q|, 1/theta_bar(log q (t_j - t_l)))^(a_j a_l / 2),
    a vanishing theta_bar resolving the min to log|Q|.  Specs with fewer
    pairs are padded with the exact factor 1."""
    logq_norm = degree * math.log(q)
    width = max((math.comb(len(spec.a), 2) for spec in specs), default=0)
    base = np.array([logq_norm ** (spec.sum_a_sq / 4) for spec in specs])
    zeta, mins = np.ones((2, len(specs), width))
    for i, spec in enumerate(specs):
        pairs = itertools.combinations(range(len(spec.a)), 2)
        for p, (j, l) in enumerate(pairs):
            power = spec.a[j] * spec.a[l] / 2
            s = 1 + 1.0 / logq_norm + 1j * (spec.t[j] - spec.t[l])
            zeta[i, p] = abs(zeta_A(q, s)) ** power
            tb = float(theta_bar(math.log(q) * (spec.t[j] - spec.t[l])))
            mins[i, p] = (logq_norm if tb == 0 else min(logq_norm, 1.0 / tb)) ** power
    return _read_only(base), _read_only(zeta), _read_only(mins)


def theorem1_rhs(modulus: Modulus, specs) -> tuple[np.ndarray, np.ndarray]:
    """Per spec, the two Theorem 1.1 bound forms: phi(Q) (log|Q|)^(sum
    a_j^2 / 4) times, over the pairs j < l, the product of the zeta factors
    or of the min factors (see _theorem1_factors), multiplied in pair order."""
    base, zeta, mins = _theorem1_factors(modulus.field.q, modulus.degree, tuple(specs))
    rhs_zeta, rhs_min = modulus.phi * base, modulus.phi * base
    for p in range(zeta.shape[1]):
        rhs_zeta *= zeta[:, p]
        rhs_min *= mins[:, p]
    return rhs_zeta, rhs_min


def moment_report(
    family: PrimitiveFamily, specs
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per spec, as float64 columns, the shifted moment lhs (all zeros when
    the family has no primitive characters) and its two Theorem 1.1 bound
    forms rhs_zeta and rhs_min."""
    lhs = shifted_moment(family, specs) if family.n_primitive else np.zeros(len(specs))
    return (lhs, *theorem1_rhs(family.modulus, specs))


def prop33_statistic(family: PrimitiveFamily, lhs: float) -> float:
    """log(lhs / phi(Q)) / log log |Q|; its family-wise sup is the empirical
    exponent in the crude moment bound phi(Q) (log|Q|)^O(1)."""
    loglog = math.log(family.modulus.log_norm)
    return math.log(lhs / family.modulus.phi) / loglog


# ---------------------------------------------------------------------------
# Character sums and their moments
# ---------------------------------------------------------------------------


def char_sum(chi: DirichletChar, Y) -> complex:
    """sum over monic f with |f| <= Y of chi(f), by direct enumeration."""
    field = chi.group.modulus.field
    N = degree_cutoff(field.q, Y)
    terms = []
    for n in range(N + 1):
        for f in enumerate_monic(field, n):
            terms.append(chi(f))
    return complex(np.sum(np.array(terms, dtype=np.complex128)))


def char_sums_from_coeffs(family: PrimitiveFamily, Y) -> np.ndarray:
    """Character sums up to norm Y for every primitive character, as partial
    coefficient sums of the L-polynomials (coefficients beyond deg(Q)-1
    vanish, so the slice is capped there)."""
    N = degree_cutoff(family.modulus.field.q, Y)
    hi = min(N + 1, family.modulus.degree)
    return np.sum(family.coeffs[:, :hi], axis=1)


class CharSumMoment(NamedTuple):
    moment: float
    bound: float
    ratio: float
    n_primitive: int


def charsum_moment(family: PrimitiveFamily, m: float, Y) -> CharSumMoment:
    """S_m(Q, Y) = sum over primitive chi of |char sum|^(2m), with its ratio
    against phi(Q) Y^m (log|Q|)^((m-1)^2)."""
    if m < 0:
        raise ValueError("moment exponent must be nonnegative")
    sums = char_sums_from_coeffs(family, Y)
    moment = float(np.sum(np.abs(sums) ** (2 * m)))
    bound = (
        family.modulus.phi
        * float(Y) ** m
        * family.modulus.log_norm ** ((m - 1) ** 2)
    )
    return CharSumMoment(moment, bound, moment / bound, family.n_primitive)


# ---------------------------------------------------------------------------
# Contour-integral partial sums
# ---------------------------------------------------------------------------


@functools.cache
def _perron_weights(N: int, dQ: int, r: float, M: int) -> np.ndarray:
    """The quadrature weights w_n = mean over the M-point circle u of radius
    r of u^n / ((1 - u) u^N), n < dQ: the Perron sum of a coefficient row c
    is c @ w."""
    u = r * np.exp(2j * np.pi * np.arange(M) / M)
    powers = u ** np.arange(dQ)[:, None]
    return _read_only(np.mean(powers / ((1 - u) * u**N), axis=1))


def perron_partial_sum(coeffs: np.ndarray, N: int, r: float, M: int) -> np.ndarray:
    """Numerical evaluation of the contour-integral form of the partial
    coefficient sum sum_{n<=N} c_n, for each coefficient row of L:

        (1/2 pi i) * integral over |u|=r of L(u) du / ((1-u) u^(N+1)),

    by M-point uniform sampling of the circle.  The sampled integral is
    linear in the coefficients, so every row is one product with the
    memoised weights of (N, deg(Q), r, M).  Requires 0 < r < 1 and
    M >= 4 (deg(Q) + N + 2), where deg(Q) is the row length, so aliased
    powers are negligible.
    """
    if not 0 < r < 1:
        raise ValueError("radius must satisfy 0 < r < 1")
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    dQ = coeffs.shape[1]
    if M < 4 * (dQ + N + 2):
        raise ValueError(f"sample count too small; need M >= {4 * (dQ + N + 2)}")
    return coeffs @ _perron_weights(N, dQ, r, M)


def perron_aliasing_bound(coeffs: np.ndarray, r: float, M: int) -> np.ndarray:
    """Rigorous bound on the circle-sampling aliasing error, per coefficient
    row: r^M / (1 - r) times the coefficient-sum majorant of |L| on the
    circle."""
    return r**M / (1 - r) * np.sum(np.abs(coeffs), axis=1)


# ---------------------------------------------------------------------------
# Circle-integral moment
# ---------------------------------------------------------------------------


class IntegralMoment(NamedTuple):
    moment: float
    bound: float
    ratio: float
    integrals: np.ndarray


# characters per product of the circle integral, which bounds its memory: a
# block's values and magnitudes take 24 bytes per row and quadrature point,
# 0.75 MB at 1024 points; a row's values do not depend on the other rows of
# its block, so the block size changes no bit as long as no block has a
# single row (BLAS multiplies one row by its matrix-vector path instead)
CIRCLE_ROWS = 32


def integral_moments_per_char(
    family: PrimitiveFamily, quad_points: int = 1024
) -> np.ndarray:
    """integral over [0, 2pi] of |L(e^(it)/sqrt(q))| dt per primitive chi,
    by the periodic trapezoid rule on a uniform grid.  The integral of conj
    chi is the same, |L(e^(-it)/sqrt(q), conj chi)| = |L(e^(it)/sqrt(q), chi)|,
    so each conjugate pair is computed once, at its lower canonical index."""
    if quad_points < 256:
        raise ValueError("at least 256 quadrature points are required")
    rows, copied = family.copied_conjugates()
    own = np.flatnonzero(~copied)
    # |L(e^(2 pi i m/M)/sqrt(q))|, m < M, against the memoised circle powers
    powers = _circle_powers(family.modulus.field.q, family.modulus.degree, quad_points)
    means = np.empty(len(own))
    for lo in range(0, len(own), CIRCLE_ROWS):
        mags = np.abs(family.coeffs[own[lo : lo + CIRCLE_ROWS]] @ powers)
        means[lo : lo + CIRCLE_ROWS] = np.mean(mags, axis=1)
    out = np.empty(len(rows))
    out[~copied] = 2 * np.pi * means
    out[copied] = out[rows[copied]]
    return out


def integral_moment(
    family: PrimitiveFamily, ms, quad_points: int = 1024
) -> list[IntegralMoment]:
    """For each exponent m in ms, the sum over primitive chi of (integral of
    |L| over the circle)^(2m), with its ratio against
    phi(Q) (log|Q|)^((m-1)^2); the integrals are computed once."""
    integrals = integral_moments_per_char(family, quad_points)
    out = []
    for m in ms:
        moment = float(np.sum(integrals ** (2 * m)))
        bound = family.modulus.phi * family.modulus.log_norm ** ((m - 1) ** 2)
        out.append(IntegralMoment(moment, bound, moment / bound, integrals))
    return out
