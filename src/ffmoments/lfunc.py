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

The log|L| bounds are sums over prime powers P^j whose t-dependence is
e^(-i t n log q) with n = j deg P alone.  So one prime-power table
S[chi, d, j] = sum over monic irreducible P of degree d of chi(P)^j
(d*j <= top) is built per family: the irreducible indices are reduced mod
Q by one digit-matrix product against the rows T^k mod Q and counted per
unit residue, one layer per degree d; character_sums turns the layers into
S[chi, d, 1], and S[chi, d, j] = S[chi^j, d, 1].  Each bound is then a
weight vector over n, and its values on a whole t-grid are one
(characters x n) @ (n x t) product with the phases e^(-i t n log q);
log|L| on the grid is likewise coeffs @ u(t)^n.
"""

from __future__ import annotations

import cmath
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


@dataclass(frozen=True)
class PrimePowerTable:
    """Prime-power character sums of one modulus,

        sums[c, d, j] = sum over monic irreducible P of degree d of chi_c(P)^j

    for d*j <= top (zero elsewhere), and the log|L| bounds built from them.
    Every bound depends on the shift t only through e^(-i t n log q) with
    n = j*d, so each is a weight vector over n, evaluated on a whole t-grid
    by one product with the phase matrix.
    """

    modulus: Modulus
    sums: np.ndarray  # (chars, top + 1, top + 1), complex

    @classmethod
    def build(cls, group: UnitGroup, K: np.ndarray, top: int) -> "PrimePowerTable":
        """The table of the characters with exponent rows K."""
        irreducibles = _irreducible_index_table(group.modulus.field.q, top)
        counts = np.zeros((top + 1, len(group.residues)))
        for d in range(1, top + 1):
            rows, unit = _unit_rows_of_monics(group, d, irreducibles[d])
            counts[d] = np.bincount(rows[unit], minlength=len(group.residues))
        prime_sums = character_sums(group, counts)
        # chi(P)^j = chi^j(P), and chi^j has the exponent row j*K mod orders
        orders = np.array(group.orders, dtype=np.int64)
        sums = np.zeros((len(K), top + 1, top + 1), dtype=np.complex128)
        for j in range(1, top + 1):
            at = char_index(group, j * K % orders)
            sums[:, 1 : top // j + 1, j] = prime_sums[1 : top // j + 1, at].T
        return cls(group.modulus, sums)

    @property
    def top(self) -> int:
        return self.sums.shape[1] - 1

    def _phases(self, ts) -> np.ndarray:
        """(top + 1, len(ts)) matrix e^(-i t n log q)."""
        n = np.arange(self.top + 1, dtype=np.float64)
        return np.exp(-1j * np.outer(n, ts) * math.log(self.modulus.field.q))

    def pointwise(self, ts, h: int) -> np.ndarray:
        """Prop 3.1 bound with smoothing length h (1 <= h <= top), per
        character and shift:

            m/h + (1/h) * Re sum over prime powers P^j with j*deg(P) <= h of
            chi(P)^j (h - j*deg P) / (j |P|^(j(1/2 + it + 1/(h log q)))),

        where m = deg(Q) - 1; terms with j*deg(P) = h carry weight zero."""
        lnq = math.log(self.modulus.field.q)
        sexp = 0.5 + 1.0 / (h * lnq)
        w = np.zeros((len(self.sums), self.top + 1), dtype=np.complex128)
        for d in range(1, h + 1):
            for j in range(1, (h - 1) // d + 1):
                n = j * d
                w[:, n] += self.sums[:, d, j] * ((h - n) / (j * math.exp(n * lnq * sexp)))
        m = self.modulus.degree - 1
        return m / h + (w @ self._phases(ts)).real / h

    def _simplified_weights(self, h: int) -> np.ndarray:
        lnq = math.log(self.modulus.field.q)
        sexp = 0.5 + 1.0 / (h * lnq)
        w = np.zeros((len(self.sums), self.top + 1), dtype=np.complex128)
        for d in range(1, h):
            w[:, d] += self.sums[:, d, 1] * ((h - d) / h / math.exp(d * lnq * sexp))
        for d in range(1, h // 2 + 1):
            w[:, 2 * d] += 0.5 * self.sums[:, d, 2] / math.exp(d * lnq)
        return w

    def simplified(self, ts, h: int) -> np.ndarray:
        """The smoothed two-sum bound value at cutoff x = q^h (h <= top),
        without its bounded remainder, per character and shift:

            Re[ sum_{|P|<=x} chi(P)/|P|^(1/2+it+1/log x) * log(x/|P|)/log x
              + (1/2) sum_{|P|<=sqrt(x)} chi(P^2)/|P|^(1+2it) ] + log|Q|/log x.
        """
        w = self._simplified_weights(h)
        return (w @ self._phases(ts)).real + self.modulus.degree / h

    def shifted(self, spec, h: int) -> np.ndarray:
        """Prop 3.2 bound value (without its bounded remainder) for
        sum_j a_j log |L(1/2 + i t_j, chi)| at x = q^h, per character:

            2 Re sum_{|P|<=x} h(P) chi(P)/|P|^(1/2+1/log x) * log(x/|P|)/log x
            + Re sum_{|P|<=sqrt(x)} h(P^2) chi(P^2)/|P| + a log|Q|/log x,

        with a = a_1 + ... + a_2k + 10 and h(f) = (1/2) sum_j a_j |f|^(-i t_j);
        the prime sums are sum_j a_j times those of the simplified bound."""
        w = self._simplified_weights(h)
        a = np.asarray(spec.a, dtype=np.float64)
        a_total = sum(spec.a) + 10.0
        return (w @ self._phases(spec.t)).real @ a + a_total * self.modulus.degree / h

    def explicit_formula_defect(self, coeffs: np.ndarray) -> np.ndarray:
        """Per character, max over 1 <= n <= top of
        |sum_{d*j=n} d * sums[d, j] + p_n|, where p_n = sum_i alpha_i^n is
        the inverse-root power sum, taken from the L-coefficients c by
        Newton's identities p_n = -n c_n - sum_{k<n} c_k p_(n-k).  Zero for
        exact data: u L'/L = -sum_n p_n u^n is the log-derivative of the
        Euler product."""
        top = self.top
        c = np.zeros((len(coeffs), top + 1), dtype=np.complex128)
        width = min(coeffs.shape[1], top + 1)
        c[:, :width] = coeffs[:, :width]
        p = np.zeros_like(c)
        prime_side = np.zeros_like(c)
        for n in range(1, top + 1):
            p[:, n] = -n * c[:, n] - np.sum(c[:, 1:n] * p[:, n - 1 : 0 : -1], axis=1)
            for d in range(1, n + 1):
                if n % d == 0:
                    prime_side[:, n] += d * self.sums[:, d, n // d]
        return np.max(np.abs(prime_side + p)[:, 1:], axis=1)


def log_abs_l_grid(coeffs: np.ndarray, q: int, ts) -> np.ndarray:
    """log |L(1/2 + i t, chi)| for each coefficient row and shift, with t
    reduced mod the period first; -inf at an on-circle zero."""
    t_red = np.asarray(ts, dtype=np.float64) % t_period(q)
    u = q**-0.5 * np.exp(-1j * t_red * math.log(q))
    powers = u[None, :] ** np.arange(coeffs.shape[1])[:, None]
    with np.errstate(divide="ignore"):
        return np.log(np.abs(coeffs @ powers))


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
    """Upper-bound value (without its bounded remainder) for the weighted sum
    sum_j a_j log |L(1/2 + i t_j, chi)| at x = q^h (see
    PrimePowerTable.shifted)."""
    _require_primitive(chi)
    h = _h_from_x(chi.group.modulus.field.q, x)
    table = PrimePowerTable.build(chi.group, exponent_rows(chi.group, [chi]), h)
    return float(table.shifted(spec, h)[0])


def loglog_norm(modulus: Modulus) -> float:
    """log log |Q|; positive for every admissible modulus with |Q| > e."""
    val = modulus.log_norm
    if val <= 1.0:
        raise ValueError("log log |Q| undefined or nonpositive at this modulus")
    return math.log(val)

