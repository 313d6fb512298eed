"""Exact L-polynomials for Dirichlet characters over F_q[T], the zeta
function of the polynomial ring, and explicit pointwise bounds on log|L|.

For a non-principal character mod Q the Dirichlet series collapses to a
polynomial in u = q^(-s) of degree at most deg(Q) - 1; coefficient n is the
full character sum over the monic polynomials of degree n.  Such sums for
all phi(Q) characters at once are one inverse DFT over the exponent grid of
the unit group (character_sums), reproducible bit-for-bit on a platform.

Values on the critical line live on the circle |u| = q^(-1/2); the shift t
in L(1/2 + it, chi) corresponds to the angle theta = -t log q, and all
values are periodic in t with period 2*pi/log q.

The log|L| bounds are sums over prime powers P^j whose t-dependence is u^n
with n = j deg P alone, u = q^(-(1/2 + it)), so like L each bound is a
polynomial in u.  One prime-power table per family keeps three rows over n
per character: the primes, the prime squares and all prime powers of
degree n.  The irreducibles are reduced mod Q by one digit-matrix product
against the rows T^k mod Q and counted per unit residue, one layer per
degree; character_sums turns the layers into sums of chi(P), and chi(P)^j =
chi^j(P).  Each bound is a weight row over n whose values on a t-grid are
the same u-power product as |L| (_u_poly_at, the powers memoised).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from ffmoments._backend import digit_rows, reduction_rows
from ffmoments.chargroup import (
    DirichletChar,
    Modulus,
    UnitGroup,
    _exponent_grid,
    char_index,
    exponent_rows,
    primitive_mask,
    unit_group,
)
from ffmoments.ffpoly import _irreducible_index_table, degree_cutoff

COEFF_TRIM_TOL = 1e-9


class ZetaPoleError(ArithmeticError):
    """Raised when zeta_A is evaluated at a pole (q^(1-s) = 1)."""


def zeta_A(q: int, s: complex) -> complex:
    """Zeta function of F_q[T]: 1 / (1 - q^(1-s))."""
    w = cmath.exp((1 - s) * math.log(q))
    denom = 1 - w
    if denom == 0:
        raise ZetaPoleError(f"zeta_A pole at s={s}")
    return 1 / denom


def t_period(q: int) -> float:
    """Period of all L-values in the shift t."""
    return 2 * math.pi / math.log(q)


def u_at_shift(q: int, t: float) -> complex:
    """u = q^(-(1/2 + i t)), with t reduced mod the period first."""
    t_red = t % t_period(q)
    return q**-0.5 * cmath.exp(-1j * t_red * math.log(q))


def u_on_circle(q: int, theta: float) -> complex:
    """u = e^(i theta) / sqrt(q)."""
    return cmath.exp(1j * theta) / math.sqrt(q)


class LPolynomial:
    """Complex coefficients of the L-polynomial of a non-principal character."""

    __slots__ = ("character", "coeffs")

    def __init__(self, character: DirichletChar, coeffs: np.ndarray):
        self.character = character
        self.coeffs = np.asarray(coeffs, dtype=np.complex128)

    @property
    def q(self) -> int:
        return self.character.group.modulus.field.q

    @property
    def degree(self) -> int:
        """Index of the last coefficient above the trim tolerance."""
        nz = np.nonzero(np.abs(self.coeffs) > COEFF_TRIM_TOL)[0]
        return int(nz[-1]) if len(nz) else 0

    def eval_u(self, u: complex) -> complex:
        """Horner evaluation at u."""
        acc = 0j
        for c in self.coeffs[::-1]:
            acc = acc * u + c
        return acc

    def inverse_roots(self) -> np.ndarray:
        """The alpha_i with L(u) = prod (1 - alpha_i u), from the
        companion-matrix eigenvalues of the reversed polynomial."""
        trimmed = self.coeffs[: self.degree + 1]
        if len(trimmed) <= 1:
            return np.empty(0, dtype=np.complex128)
        return np.roots(trimmed)

    def __repr__(self):
        return f"LPolynomial(chi#{self.character.index}, coeffs={self.coeffs})"


def rh_root_deviations(coeffs: np.ndarray, even: np.ndarray, q: int) -> np.ndarray:
    """Per coefficient row of primitive characters mod a degree-d modulus
    (rows of length d), the largest deviation of the inverse roots from the
    shape the Riemann hypothesis forces: d - 1 roots, all with |alpha| =
    sqrt(q), except that an even character has exactly one root alpha = 1
    in their place.  inf for a row whose top coefficient is at most
    COEFF_TRIM_TOL, as then the root count is wrong.

    The roots are the eigenvalues of the companion matrices of the rows,
    stacked into one batched eigenvalue call."""
    n_rows, d = coeffs.shape
    dev = np.full(n_rows, math.inf)
    full = np.abs(coeffs[:, -1]) > COEFF_TRIM_TOL
    c = coeffs[full]
    companion = np.zeros((len(c), d - 1, d - 1), dtype=np.complex128)
    companion[:, 0, :] = -c[:, 1:] / c[:, :1]
    companion[:, np.arange(1, d - 1), np.arange(d - 2)] = 1
    roots = np.linalg.eigvals(companion)
    is_even = np.asarray(even, dtype=bool)[full]
    one = np.argmin(np.abs(roots - 1), axis=1)
    near = roots[np.arange(len(c)), one] - 1
    # hypot per element: the vectorised complex abs may round differently
    dev_one = np.where(is_even, np.hypot(near.real, near.imag), 0.0)
    mags = np.abs(np.abs(roots) - math.sqrt(q))
    mags[is_even, one[is_even]] = 0.0
    dev[full] = np.maximum(dev_one, np.max(mags, axis=1, initial=0.0))
    return dev


def log_abs_l(L: LPolynomial, t: float) -> float:
    """log |L(1/2 + i t, chi)|; -inf at an on-circle zero."""
    value = abs(L.eval_u(u_at_shift(L.q, t)))
    return math.log(value) if value > 0 else -math.inf


# ---------------------------------------------------------------------------
# Coefficient computation
# ---------------------------------------------------------------------------


def character_sums(group: UnitGroup, weights) -> np.ndarray:
    """(len(weights), phi) sums of w(a) chi_k(a) over the units a, one row per
    weight row w (aligned with group.residues), characters in canonical index
    order: the unnormalised inverse DFT of w placed on the exponent grid
    (shape group.orders) by the discrete-log table, since chi_k(a) =
    exp(2 pi i sum_j k_j a_j / m_j) and the canonical index is C order on
    that grid."""
    weights = np.asarray(weights)
    if group.rank == 0:
        return weights.astype(np.complex128)
    grid = np.zeros((len(weights), *group.orders), dtype=np.complex128)
    grid[(slice(None), *group.dlog_mat.T)] = weights
    sums = np.fft.ifftn(grid, axes=tuple(range(1, group.rank + 1)), norm="forward")
    return sums.reshape(len(weights), group.order)


def l_coefficients(group: UnitGroup, index) -> np.ndarray:
    """Coefficient matrix (len(index) x deg(Q)) of the L-polynomials of the
    characters with these canonical indices: coefficient n sums the
    characters over the 0/1 layer of the coprime monic residues of degree n,
    whose indices lie in [q^n, 2 q^n)."""
    low = group.modulus.field.q ** np.arange(group.modulus.degree)[:, None]
    layers = (low <= group.residues) & (group.residues < 2 * low)
    return np.ascontiguousarray(character_sums(group, layers)[:, index].T)


def _unit_rows_of_monics(
    group: UnitGroup, n: int, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows (into group.residues) of the monic degree-n polynomials with the
    given indices, reduced mod Q, and a mask of those that are units.

    Reduction is linear in the coefficients, so the residue digits are the
    coefficient digits (leading 1 included) times the rows T^k mod Q."""
    q, Q = group.modulus.field.q, group.modulus.poly
    digits = digit_rows(indices + q**n, q, n + 1)  # leading 1 as digit n
    residue_digits = (reduction_rows(q, Q.coeffs, n).T @ digits) % q
    return group.rows_of(q ** np.arange(Q.degree, dtype=np.int64) @ residue_digits)


def monic_residue_counts(group: UnitGroup, n: int) -> np.ndarray:
    """How many monic polynomials of degree n land on each unit residue
    (non-units are dropped)."""
    q = group.modulus.field.q
    rows, unit = _unit_rows_of_monics(group, n, np.arange(q**n, dtype=np.int64))
    return np.bincount(rows[unit], minlength=len(group.residues))


def l_coefficient_probe(group: UnitGroup, index, n: int) -> np.ndarray:
    """Coefficient n of the Dirichlet series of the characters with these
    canonical indices, computed by brute reduction of every monic polynomial
    of degree n; used to check that the coefficients beyond deg(Q)-1 really
    vanish."""
    counts = monic_residue_counts(group, n)
    return character_sums(group, counts[None, :])[0, index]


# ---------------------------------------------------------------------------
# Primitive family bundle
# ---------------------------------------------------------------------------


@dataclass
class PrimitiveFamily:
    """A modulus with its unit group, its primitive characters as arrays and
    their L-polynomial coefficients, one row per primitive character in
    canonical index order."""

    modulus: Modulus
    group: UnitGroup
    index: np.ndarray  # (n_primitive,) canonical indices, ascending
    exponents: np.ndarray  # (n_primitive, rank) exponent rows
    coeffs: np.ndarray  # (n_primitive, deg Q)

    @property
    def n_primitive(self) -> int:
        return len(self.index)

    @property
    def primitive_chars(self) -> tuple[DirichletChar, ...]:
        """The primitive characters as DirichletChar objects for scalar
        evaluation, built on each access."""
        return tuple(
            DirichletChar(self.group, tuple(k), i, primitive=True, principal=False)
            for i, k in zip(self.index.tolist(), self.exponents.tolist())
        )

    def conjugate_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Per primitive character, the row of its conjugate (exponents -k)
        and whether that conjugate is in the family; where it is not, the
        row is only clipped into range."""
        orders = np.array(self.group.orders, dtype=np.int64)
        conj = char_index(self.group, -self.exponents % orders)
        rows = np.minimum(np.searchsorted(self.index, conj), len(self.index) - 1)
        return rows, self.index[rows] == conj

    def copied_conjugates(self) -> tuple[np.ndarray, np.ndarray]:
        """The conjugate rows, and per row whether its conjugate is in the
        family at a lower row, where a value they share is computed."""
        rows, found = self.conjugate_rows()
        return rows, found & (rows < np.arange(len(rows)))


def primitive_family(modulus: Modulus) -> PrimitiveFamily:
    """The unit group, primitive characters and their L-coefficients of Q."""
    group = unit_group(modulus)
    index = np.flatnonzero(primitive_mask(group))
    return PrimitiveFamily(
        modulus=modulus,
        group=group,
        index=index,
        exponents=_exponent_grid(index, group.orders),
        coeffs=l_coefficients(group, index),
    )


# ---------------------------------------------------------------------------
# Explicit pointwise bounds on log |L|
# ---------------------------------------------------------------------------


def _require_primitive(chi: DirichletChar):
    if chi.principal or not chi.primitive:
        raise ValueError("a non-principal primitive character is required")


def _h_from_x(q: int, x) -> int:
    h = degree_cutoff(q, x)
    if h < 1:
        raise ValueError(f"{x} is not a positive power of q={q}")
    return h


def _prime_power_rows(group: UnitGroup, K: np.ndarray, top: int) -> np.ndarray:
    """For the characters with exponent rows K, the rows over n of prime,
    square and the terms with j >= 3 of lam (see PrimePowerTable)."""
    irreducibles = _irreducible_index_table(group.modulus.field.q, top)
    counts = np.zeros((top + 1, len(group.residues)))
    for d in range(1, top + 1):
        rows, unit = _unit_rows_of_monics(group, d, irreducibles[d])
        counts[d] = np.bincount(rows[unit], minlength=len(group.residues))
    prime_sums = character_sums(group, counts)
    # chi(P)^j = chi^j(P), and chi^j has the exponent row j*K mod orders
    orders = np.array(group.orders, dtype=np.int64)
    out = np.zeros((3, len(K), top + 1), dtype=np.complex128)
    for j in range(1, top + 1):
        at = char_index(group, j * K % orders)
        sums = prime_sums[1 : top // j + 1, at].T
        out[min(j, 3) - 1, :, j::j] += sums if j < 3 else sums / j
    return out


@dataclass(frozen=True)
class PrimePowerTable:
    """Prime-power character sums of one modulus, one row per character over
    n = j*deg P <= top, with S(chi, d, j) = sum over monic irreducible P of
    degree d of chi(P)^j:

        prime[c, n]  = S(chi_c, n, 1),
        square[c, n] = S(chi_c, n/2, 2) at even n, 0 at odd n,
        lam[c, n]    = sum over j dividing n of S(chi_c, n/j, j)/j,

    and the log|L| bounds built from them, each a weight row over n times
    u^n.  lam is built as prime + square/2 + the terms with j >= 3, so the
    explicit formula, which reads lam, sees every value that a bound reads.
    """

    modulus: Modulus
    prime: np.ndarray  # (chars, top + 1), complex
    square: np.ndarray
    lam: np.ndarray

    @classmethod
    def build(cls, group: UnitGroup, K: np.ndarray, top: int) -> "PrimePowerTable":
        """The table of the characters with exponent rows K."""
        prime, square, lam = _prime_power_rows(group, K, top)
        lam += prime + square / 2  # lam held the terms with j >= 3
        return cls(group.modulus, prime, square, lam)

    def pointwise(self, ts, h: int) -> np.ndarray:
        """Prop 3.1 bound with smoothing length h (1 <= h <= top), per
        character and shift:

            m/h + (1/h) * Re sum over prime powers P^j with j*deg(P) <= h of
            chi(P)^j (h - j*deg P) / (j |P|^(j(1/2 + it + 1/(h log q))))
          = m/h + Re sum_{1 <= n < h} lam[n] (h - n) e^(-n/h) u^n / h,

        where m = deg(Q) - 1; terms with j*deg(P) = h carry weight zero."""
        n = np.arange(h)
        w = self.lam[:, :h] * ((h - n) * np.exp(-n / h) / h)
        m = self.modulus.degree - 1
        return m / h + _u_poly_at(w, self.modulus.field.q, ts).real

    def simplified(self, ts, h: int) -> np.ndarray:
        """The smoothed two-sum bound value at cutoff x = q^h (h <= top),
        without its bounded remainder, per character and shift:

            Re[ sum_{|P|<=x} chi(P)/|P|^(1/2+it+1/log x) * log(x/|P|)/log x
              + (1/2) sum_{|P|<=sqrt(x)} chi(P^2)/|P|^(1+2it) ] + log|Q|/log x
          = Re sum_{n<=h} (prime[n] (h-n)/h e^(-n/h) + square[n]/2) u^n + deg(Q)/h.
        """
        n = np.arange(h + 1)
        w = self.prime[:, : h + 1] * ((h - n) / h * np.exp(-n / h))
        w += self.square[:, : h + 1] / 2
        return _u_poly_at(w, self.modulus.field.q, ts).real + self.modulus.degree / h

    def explicit_formula_defect(self, coeffs: np.ndarray) -> np.ndarray:
        """Per character, max over 1 <= n <= top of |n lam[n] + p_n|, where
        p_n = sum_i alpha_i^n is the inverse-root power sum, taken from the
        L-coefficients c by Newton's identities
        p_n = -n c_n - sum_{k<n} c_k p_(n-k).  Zero for exact data:
        u L'/L = -sum_n p_n u^n is the log-derivative of the Euler product,
        whose n-th coefficient is n lam[n]."""
        c, p = np.zeros_like(self.lam), np.zeros_like(self.lam)
        width = min(coeffs.shape[1], c.shape[1])
        c[:, :width] = coeffs[:, :width]
        for n in range(1, c.shape[1]):
            p[:, n] = -n * c[:, n] - np.sum(c[:, 1:n] * p[:, n - 1 : 0 : -1], axis=1)
        return np.max(np.abs(np.arange(c.shape[1]) * self.lam + p)[:, 1:], axis=1)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.cache
def _shift_powers(q: int, degree: int, ts: tuple[float, ...], circle: bool):
    """(degree x len(ts)) powers u^n at the shifts t: u = q^(-(1/2 + i t))
    with t reduced mod the period, or on the critical circle at the angles
    theta = -t log q, unreduced (Cor 1.2)."""
    lnq = math.log(q)
    us = [u_on_circle(q, -t * lnq) if circle else u_at_shift(q, t) for t in ts]
    return _read_only(np.array(us)[None, :] ** np.arange(degree)[:, None])


def _u_poly_at(coeffs: np.ndarray, q: int, ts, circle: bool = False) -> np.ndarray:
    """sum_n coeffs[c, n] u^n per coefficient row c (rows) and shift t (cols):
    |L| and the log|L| bounds (see _shift_powers for u)."""
    powers = _shift_powers(q, coeffs.shape[1], tuple(ts), circle)
    # einsum, not @: BLAS zgemm sums in another order and moves the last bits
    # of most entries (up to ~1e-14 at 15 coefficients), which the
    # byte-identical lfun and moments reports would show
    return np.einsum("cn,ns->cs", coeffs, powers)


def abs_l_at(coeffs: np.ndarray, q: int, ts, circle: bool = False) -> np.ndarray:
    """|L(u, chi)| for each coefficient row (rows) at each shift t (cols),
    the one evaluator of lfun and the moments (see _shift_powers for u)."""
    return np.abs(_u_poly_at(coeffs, q, ts, circle))


def log_l_bound_pointwise(chi: DirichletChar, t: float, h: int) -> float:
    """Prop 3.1 upper bound for log |L(1/2 + it, chi)| with smoothing length
    h, 1 <= h <= deg(Q) - 1 (see PrimePowerTable.pointwise)."""
    _require_primitive(chi)
    m = chi.group.modulus.degree - 1
    if not (1 <= h <= m):
        raise ValueError(f"h must satisfy 1 <= h <= {m}, got {h}")
    table = PrimePowerTable.build(chi.group, exponent_rows(chi.group, [chi]), h)
    return float(table.pointwise([t], h)[0, 0])


def log_l_bound_simplified(chi: DirichletChar, t: float, x) -> float:
    """The smoothed two-sum upper-bound value for log |L(1/2 + it, chi)| at
    cutoff x = q^h, without its bounded remainder (see
    PrimePowerTable.simplified).  The caller records the defect
    log|L| - value as the empirical constant."""
    _require_primitive(chi)
    h = _h_from_x(chi.group.modulus.field.q, x)
    table = PrimePowerTable.build(chi.group, exponent_rows(chi.group, [chi]), h)
    return float(table.simplified([t], h)[0, 0])


def shifted_log_bound(chi: DirichletChar, spec, x) -> float:
    """Prop 3.2 upper-bound value (without its bounded remainder) for the
    weighted sum sum_j a_j log |L(1/2 + i t_j, chi)| at x = q^h: the
    a-weighted simplified bound at the shifts t_j, plus 10 log|Q|/log x."""
    _require_primitive(chi)
    h = _h_from_x(chi.group.modulus.field.q, x)
    table = PrimePowerTable.build(chi.group, exponent_rows(chi.group, [chi]), h)
    bound = table.simplified(spec.t, h)[0] @ np.asarray(spec.a)
    return float(bound + 10.0 * chi.group.modulus.degree / h)


def loglog_norm(modulus: Modulus) -> float:
    """log log |Q|; positive for every admissible modulus with |Q| > e."""
    val = modulus.log_norm
    if val <= 1.0:
        raise ValueError("log log |Q| undefined or nonpositive at this modulus")
    return math.log(val)

