"""Structure of (F_q[T]/Q)^* and the Dirichlet characters mod Q.

By the CRT the unit group is the product of the local groups (F_q[T]/P^e)^*
over the prime-power factors of Q.  Each local group is built on residue
index arrays once per process per prime power and memoised: the part of
order q^deg(P) - 1 is generated by a power of the first primitive root mod P,
a residue-to-row table inverts the residue list, and a mask marks the
primitive characters.  As q is prime, (1 + x)^q = 1 + x^q, so the (1+P)-part
has the closed-form basis 1 + T^i P^j (i < deg P, 0 < j < e, q not dividing
j), each of order q^m with m least such that j q^m >= e.  The product is
direct: level n = j q^t of the filtration 1 + P^n is reached only from j,
z -> z^(q^t) permutes F_q[T]/P so the q^t-th powers of level j span level n,
and the orders multiply to q^(deg P (e-1)).  unit_group reduces every
residue mod Q to each P^e and reads its local exponent rows off those
tables: generator basis with orders, plus a full discrete-log table mapping
every coprime residue (in its integer encoding) to its exponent vector.  The
map (a_1..a_r) -> prod g_j^a_j is verified to be a bijection onto the units:
phi(Q) distinct residues, every one non-zero mod each prime factor of Q, so
any defect in the structure computation fails loudly.

Characters are exponent vectors against that basis; values are unit-circle
complex numbers computed at call time.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ffmoments._backend import _product_rows, digit_rows, reduction_rows, scale_mod_many
from ffmoments.ffpoly import (
    FieldSpec,
    FqPoly,
    _irreducible_index_table,
    monic_from_index,
    render_poly,
    residue_index,
)


@dataclass(frozen=True)
class Modulus:
    """A monic modulus Q of degree >= 2 with its prime-power factorization."""

    field: FieldSpec
    poly: FqPoly
    factors: tuple[tuple[FqPoly, int], ...]
    phi: int

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def norm(self) -> int:
        return self.poly.norm

    @property
    def log_norm(self) -> float:
        return self.degree * math.log(self.field.q)

    def __str__(self):
        return render_poly(self.poly)


@functools.cache
def _irreducible_rows(q: int, d: int, top: int) -> np.ndarray:
    """(N, top + 1, d) digit rows of T^k mod P, k <= top, for the N monic
    irreducibles P of degree d in index order; read-only."""
    monics = _irreducible_index_table(q, d)[d] + q**d  # leading 1 as digit d
    rows = reduction_rows(q, digit_rows(monics, q, d + 1).T, top)
    rows.setflags(write=False)
    return rows


def _divmod_digits(q: int, num: list[int], den) -> tuple[list[int], list[int]]:
    """Quotient and remainder digits of num by the monic den, both digit
    lists with the constant first."""
    num = list(num)
    d = len(den) - 1
    quot = [0] * max(len(num) - d, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = num[k + d]
        for i, x in enumerate(den):
            num[k + i] = (num[k + i] - c * x) % q
    return quot, num[:d]


def factor_modulus(Q: FqPoly) -> Modulus:
    """Factor a monic modulus of degree >= 2 on digit arrays, and fill in the
    Euler totient.  Degree by degree, the remainders of the unfactored part R
    mod every monic irreducible of that degree are one digit product against
    their stacked rows T^k mod P; each P that leaves remainder zero, in index
    order, is divided out of R by long division as often as it goes."""
    if not Q.is_monic:
        raise ValueError("modulus must be monic")
    if Q.degree < 2:
        raise ValueError("modulus must have degree >= 2")
    field = Q.field
    q = field.q
    rem = list(Q.coeffs)
    factors: list[tuple[FqPoly, int]] = []
    d = 1
    while d < len(rem):
        remainders = np.array(rem) @ _irreducible_rows(q, d, len(rem) - 1) % q
        divisors = _irreducible_index_table(q, d)[d][~np.any(remainders, axis=1)]
        for index in divisors.tolist():
            P = monic_from_index(field, d, index)
            e = 0
            while True:
                quot, r = _divmod_digits(q, rem, P.coeffs)
                if any(r):
                    break
                rem, e = quot, e + 1
            factors.append((P, e))
        d += 1
    assert rem == [1], "factorization incomplete"
    phi = 1
    for P, e in factors:
        dp = P.degree
        phi *= q ** (dp * e) - q ** (dp * (e - 1))
    return Modulus(field=field, poly=Q, factors=tuple(factors), phi=phi)


def primitive_count_inclusion_exclusion(m: Modulus) -> int:
    """Number of primitive characters mod Q by the conductor-divisor sieve:
    sum over squarefree monic divisors D of Q of mu(D) * phi(Q/D)."""
    q = m.field.q

    def phi_of(exps: tuple[int, ...]) -> int:
        out = 1
        for (P, _), e in zip(m.factors, exps):
            if e:
                out *= q ** (P.degree * e) - q ** (P.degree * (e - 1))
        return out

    total = 0
    for picks in itertools.product(*[(0, 1) for _ in m.factors]):
        reduced = tuple(e - p for (_, e), p in zip(m.factors, picks))
        total += (-1) ** sum(picks) * phi_of(reduced)
    return total


# ---------------------------------------------------------------------------
# Local unit groups (F_q[T]/P^e)^* on residue index arrays
# ---------------------------------------------------------------------------


class _LocalTable(NamedTuple):
    """(F_q[T]/P^e)^* on residue indices of width deg(P^e); arrays read-only."""

    modulus: np.ndarray  # coefficients of P^e, constant first
    orders: tuple[int, ...]
    residues: np.ndarray  # prod g_j^a_j over the exponent grid, C order
    row_of: np.ndarray  # per residue of width deg(P^e): its row, -1 off the units
    primitive: np.ndarray  # per local character, same order: is it primitive


# (q, P.coeffs, e) -> table, built on first use in each process
_LOCAL_TABLES: dict[tuple[int, tuple[int, ...], int], _LocalTable] = {}


def _strides(orders) -> np.ndarray:
    """C-order strides of the exponent grid: flat index = exponents @ strides."""
    return np.cumprod([1, *orders[:0:-1]], dtype=np.int64)[::-1][: len(orders)]


def _exponent_grid(flat, orders) -> np.ndarray:
    """(len(flat), rank) exponent rows of an array of C-order grid indices."""
    return flat[:, None] // _strides(orders) % np.array(orders, dtype=np.int64)


def _from_digits(q: int, digits) -> np.ndarray:
    """Residue indices of an int64 array of digit rows, one residue per row."""
    return digits @ q ** np.arange(digits.shape[-1], dtype=np.int64)


def _one_plus(q: int, local, m, a) -> np.ndarray:
    """Indices of 1 + m a mod P^e for the a of the given indices, where
    deg(m a) < deg P^e: the product needs no reduction, and adding 1 only
    changes digit 0."""
    prods = scale_mod_many(q, local, a, _from_digits(q, m))
    low = prods % q
    return prods - low + (low + 1) % q


def _power_blocks(q: int, mod_digits, table, g: int, m: int) -> np.ndarray:
    """The m blocks table * g^t mod F, t < m, by doubling on digit columns.
    Multiplication by g^k mod F is the d x d digit matrix M whose column i
    holds the digits of T^i g^k mod F, the rows T^j mod F (j <= 2d - 2)
    times the digits of g^k; each step appends M @ (the blocks so far) and
    squares M.  The residues are encoded once, at the end."""
    d = len(mod_digits) - 1
    rows = _product_rows(q, tuple(np.asarray(mod_digits).tolist()))
    g_digits = digit_rows([g], q, d)[:, 0]
    mat = np.stack([rows[:, i : i + d] @ g_digits for i in range(d)], axis=1) % q
    out, need = digit_rows(table, q, d), m * len(table)
    while out.shape[1] < need:
        out = np.concatenate([out, mat @ out[:, : need - out.shape[1]] % q], axis=1)
        mat = mat @ mat % q
    return _from_digits(q, out.T)


def _build_local_table(q: int, P: np.ndarray, e: int) -> _LocalTable:
    """The (1+P)-part (e >= 2) has the closed-form basis 1 + T^i P^j, i < k =
    deg P and 0 < j < e with q not dividing j, of order q^m for the least m
    with j q^m >= e, since (1 + x)^q = 1 + x^q.  It is direct: level
    n = j q^t of the filtration 1 + P^n is reached only from j; z -> z^(q^t)
    permutes F_q[T]/P, so the q^t-th powers of the k generators of level j
    span level n; and the orders multiply to q^(k(e-1)), the size of the part.
    The cyclic part of order c = q^k - 1 is generated by r^(q^(k(e-1))), r
    the first primitive root mod P in index order: the first candidate whose
    powers r^0..r^(c-1) mod P are 1 only at r^0, which then are the cyclic
    table.  A constant's order divides q - 1 < c, so for k >= 2 the search
    starts at T.  u^(q^(k(e-1))) mod P^e depends only on u mod P, and
    z -> z^q is F_q-linear on the digits, so the powers of r mod P lift to
    P^e by one digit-matrix product.  A local character is primitive iff it
    is non-trivial on 1 + P^(e-1) a, deg a < k.  For e = 1 these are all the
    units, so only the principal character is imprimitive.  For e >= 2 they
    form a group isomorphic to (F_q[T]/P, +), as 2(e-1) >= e, so testing its
    k generators 1 + P^(e-1) T^i suffices."""
    k = len(P) - 1
    powers = [np.ones(1, dtype=np.int64)]  # P^j, j <= e
    for _ in range(e):
        powers.append(np.convolve(powers[-1], P) % q)
    local, d = powers[e], k * e
    orders, table = [], np.ones(1, dtype=np.int64)
    for j in (j for j in range(1, e) if j % q):
        m = q ** next(t for t in itertools.count() if j * q**t >= e)
        for g in _one_plus(q, local, powers[j], q ** np.arange(k)).tolist():
            table = _power_blocks(q, local, table, g, m).reshape(m, -1).T.ravel()
            orders.append(m)
    c = q**k - 1
    if c > 1:
        for r in itertools.count(q if k > 1 else 1):
            cyclic = _power_blocks(q, P, np.ones(1, np.int64), r, c)
            if np.count_nonzero(cyclic == 1) == 1:
                break
        frob = reduction_rows(q, local, (d - 1) * q)[::q]  # rows T^(iq) mod P^e
        lift = np.eye(k, d, dtype=np.int64)
        for _ in range(d - k):
            lift = lift @ frob % q
        cyclic = _from_digits(q, digit_rows(cyclic, q, k).T @ lift % q)
        table = scale_mod_many(q, local, cyclic.repeat(len(table)), np.tile(table, c))
        orders.insert(0, c)
    row_of = np.full(q**d, -1, dtype=np.int64)
    row_of[table] = np.arange(len(table))
    if e == 1:
        primitive = np.arange(len(table)) != 0
    else:
        gens = row_of[_one_plus(q, local, powers[e - 1], q ** np.arange(k))]
        grid = _exponent_grid(np.arange(len(table)), orders)
        primitive = ~_trivial_on_rows(orders, grid, grid[gens])
    for a in (local, table, row_of, primitive):
        a.setflags(write=False)
    return _LocalTable(local, tuple(orders), table, row_of, primitive)


def _local_table(field: FieldSpec, P: FqPoly, e: int) -> _LocalTable:
    """The memoised table of (F_q[T]/P^e)^*, built once per process."""
    key = (field.q, P.coeffs, e)
    if key not in _LOCAL_TABLES:
        _LOCAL_TABLES[key] = _build_local_table(field.q, np.array(P.coeffs), e)
    return _LOCAL_TABLES[key]


class UnitGroup:
    """Explicit basis plus full discrete-log table for (F_q[T]/Q)^*."""

    def __init__(
        self,
        modulus: Modulus,
        generators: np.ndarray,
        orders: tuple[int, ...],
        residues: np.ndarray,
        dlog_mat: np.ndarray,
    ):
        self.modulus = modulus
        self.generators = generators  # residue indices, int64
        self.orders = orders
        self.residues = residues  # sorted unit residue indices, int64
        self.dlog_mat = dlog_mat  # (phi, r) exponent rows aligned to residues

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def order(self) -> int:
        return self.modulus.phi

    def dlog_of(self, f: FqPoly) -> tuple[int, ...] | None:
        """Exponent vector of f mod Q, or None when gcd(f, Q) != 1."""
        r = f % self.modulus.poly
        (row,), (unit,) = self.rows_of([residue_index(r, self.modulus.degree)])
        return tuple(int(v) for v in self.dlog_mat[row]) if unit else None

    def rows_of(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """Rows (into residues) of the given residue indices by binary
        search, and a mask of those that are units; a non-unit gets an
        arbitrary valid row."""
        indices = np.asarray(indices, dtype=np.int64)
        rows = np.searchsorted(self.residues, indices)
        rows = np.minimum(rows, len(self.residues) - 1)
        return rows, self.residues[rows] == indices

    def verify_bijection(self):
        """Check that the exponent-grid map really is a bijection onto the
        units: phi(Q) strictly increasing (so distinct) residues, dlog(1) =
        0, and every residue a unit.  A residue is a unit iff its reduction
        mod each prime factor P of Q is non-zero: one digit-matrix product
        per factor."""
        modulus = self.modulus
        q, dQ = modulus.field.q, modulus.degree
        if not len(self.residues) == len(self.dlog_mat) == modulus.phi:
            raise ArithmeticError("unit table size mismatch")
        if np.any(np.diff(self.residues) <= 0):
            raise ArithmeticError("unit residues are not distinct and sorted")
        (row,), (found,) = self.rows_of([1])  # the residue 1 has index 1
        if not found or np.any(self.dlog_mat[row]):
            raise ArithmeticError("dlog(1) is not the zero vector")
        digits = digit_rows(self.residues, q, dQ)
        for P, _ in modulus.factors:
            mod_p = (reduction_rows(q, P.coeffs, dQ - 1).T @ digits) % q
            if not np.all(np.any(mod_p, axis=0)):
                raise ArithmeticError("non-unit residue in table")


def _unit_rows(q: int, dQ: int, tables: list[_LocalTable]):
    """The units among all q^dQ residues mod Q, in index order, and the C-order
    grid index of each.  Per table, the residues are reduced mod its P^e of
    degree d by folding their digits at and above d in through the rows
    T^k mod P^e, and looked up in its residue-to-row table; a residue is a
    unit iff every lookup hits, and its local rows, read in mixed radix, are
    its grid index."""
    res = np.arange(q**dQ, dtype=np.int64)
    flat = np.zeros_like(res)
    for t in tables:
        d = len(t.modulus) - 1
        digits = digit_rows(res, q, dQ)
        local = reduction_rows(q, t.modulus, dQ - 1)[d:].T @ digits[d:]
        local += digits[:d]
        local %= q
        rows = t.row_of[_from_digits(q, local.T)]
        hit = rows >= 0
        res, flat = res[hit], flat[hit] * len(t.residues) + rows[hit]
    return res, flat


def unit_group(modulus: Modulus) -> UnitGroup:
    """Read the dlog of every unit mod Q off the local tables of its factors
    P_i^e_i, then verify the bijection.  The generators are the units at the
    unit exponent vectors, looked up in a grid sized by the product of the
    orders."""
    field = modulus.field
    tables = [_local_table(field, P, e) for P, e in modulus.factors]
    orders = tuple(m for t in tables for m in t.orders)
    res, flat = _unit_rows(field.q, modulus.degree, tables)
    grid = np.zeros(math.prod(orders), dtype=np.int64)
    grid[flat] = res
    dlog = _exponent_grid(flat, orders)
    group = UnitGroup(modulus, grid[_strides(orders)], orders, res, dlog)
    group.verify_bijection()
    return group


# ---------------------------------------------------------------------------
# Dirichlet characters
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DirichletChar:
    """A character mod Q, as an exponent vector against the group basis."""

    group: UnitGroup
    exponents: tuple[int, ...]
    index: int
    primitive: bool
    principal: bool

    def __call__(self, f: FqPoly) -> complex:
        return char_eval(self, f)

    def __repr__(self):
        return (
            f"DirichletChar(Q={self.group.modulus}, index={self.index}, "
            f"exponents={self.exponents})"
        )


def exponent_rows(group: UnitGroup, chars) -> np.ndarray:
    """(len(chars), rank) int64 matrix of the characters' exponent rows."""
    return np.array([c.exponents for c in chars], dtype=np.int64).reshape(
        len(chars), group.rank
    )


def char_index(group: UnitGroup, K: np.ndarray) -> np.ndarray:
    """Canonical index of each exponent row of K: its position in
    lexicographic exponent order."""
    idx = np.zeros(len(K), dtype=np.int64)
    for j, m in enumerate(group.orders):
        idx = idx * m + K[:, j]
    return idx


def _trivial_on_rows(orders, K, dlogs) -> np.ndarray:
    """Per exponent row of K, whether that character of the group with these
    orders is 1 on the units with the given dlog rows: an exact integer
    test, phases scaled to the lcm L of the orders and summed mod L."""
    K = np.asarray(K, dtype=np.int64).reshape(len(K), len(orders))
    if not orders:
        return np.ones(len(K), dtype=bool)
    L = math.lcm(*orders)
    weights = K * (L // np.array(orders, dtype=np.int64))
    return ~np.any((weights @ np.asarray(dlogs).T) % L, axis=1)


def _even_mask(group: UnitGroup, K) -> np.ndarray:
    """Per exponent row of K, whether that character is 1 on the nonzero
    constants F_q^*, whose residue indices are 1..q-1."""
    rows, _ = group.rows_of(np.arange(1, group.modulus.field.q))
    return _trivial_on_rows(group.orders, K, group.dlog_mat[rows])


def primitive_mask(group: UnitGroup) -> np.ndarray:
    """Per character in canonical index order, whether it is primitive.  A
    character is primitive iff each of its local components is: the mask is
    the AND-outer product of the local tables' masks."""
    field = group.modulus.field
    masks = [_local_table(field, P, e).primitive for P, e in group.modulus.factors]
    return functools.reduce(np.logical_and.outer, masks).ravel()


def all_characters(group: UnitGroup) -> list[DirichletChar]:
    """All phi(Q) characters in lexicographic exponent order."""
    grid = list(itertools.product(*[range(m) for m in group.orders]))
    primitive = primitive_mask(group).tolist()
    return [
        DirichletChar(
            group=group,
            exponents=exps,
            index=idx,
            primitive=primitive[idx],
            principal=not any(exps),
        )
        for idx, exps in enumerate(grid)
    ]


def char_eval(chi: DirichletChar, f: FqPoly) -> complex:
    """chi(f): zero off the units, exp(2*pi*i sum k_j a_j / m_j) on them."""
    vec = chi.group.dlog_of(f)
    if vec is None:
        return 0j
    phase = 0.0
    for k, a, m in zip(chi.exponents, vec, chi.group.orders):
        phase += (k * a % m) / m
    return cmath.exp(2j * cmath.pi * phase)


def character_values(group: UnitGroup, exponent_matrix: np.ndarray) -> np.ndarray:
    """Unit-circle value matrix V[u, c] = chi_c(residue_u) over the sorted
    unit residues, for the characters given as exponent rows."""
    K = np.asarray(exponent_matrix, dtype=np.int64)
    n_units = len(group.residues)
    n_chars = K.shape[0]
    if group.rank == 0:
        return np.ones((n_units, n_chars), dtype=np.complex128)
    phase = np.zeros((n_units, n_chars), dtype=np.float64)
    for j, m in enumerate(group.orders):
        outer = np.outer(group.dlog_mat[:, j], K[:, j]) % m
        phase += outer / m
    return np.exp(2j * np.pi * phase)
