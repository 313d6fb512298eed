"""Structure of (F_q[T]/Q)^* and the Dirichlet characters mod Q.

The unit group is presented by an explicit generator basis with orders, plus
a full discrete-log table mapping every coprime residue (in its integer
encoding) to its exponent vector.  The basis is assembled per prime-power
factor of Q: the part of order q^d - 1 comes from deterministic order
testing in residue-enumeration order, the (1+P)-part from a generic abelian
p-group basis computation over its elements, and the factors are glued by
CRT.  The map (a_1..a_r) -> prod g_j^a_j is verified at construction to be
a bijection onto the units: phi(Q) distinct residues, every one non-zero
mod each prime factor of Q, so any defect in the structure computation
fails loudly.

Characters are exponent vectors against that basis; values are unit-circle
complex numbers computed at call time.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ffmoments._backend import digit_rows, reduction_rows, scale_mod_many
from ffmoments.ffpoly import (
    FieldSpec,
    FqPoly,
    _prime_factors_int,
    enumerate_irreducible,
    ext_gcd,
    poly_divmod,
    poly_gcd,
    pow_mod,
    render_poly,
    residue_from_index,
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


def factor_modulus(Q: FqPoly) -> Modulus:
    """Factor a monic modulus of degree >= 2 by trial division against the
    enumerated irreducibles, and fill in the Euler totient."""
    if not Q.is_monic:
        raise ValueError("modulus must be monic")
    if Q.degree < 2:
        raise ValueError("modulus must have degree >= 2")
    field = Q.field
    q = field.q
    rem = Q
    factors: list[tuple[FqPoly, int]] = []
    d = 1
    while rem.degree >= 1 and d <= Q.degree:
        for P in enumerate_irreducible(field, d):
            e = 0
            while True:
                quot, r = poly_divmod(rem, P)
                if not r.is_zero:
                    break
                rem = quot
                e += 1
            if e:
                factors.append((P, e))
            if rem.degree < d:
                break
        d += 1
    assert rem.degree == 0 and rem.coeffs[0] == 1, "factorization incomplete"
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
# Abelian p-group basis from its full element list
# ---------------------------------------------------------------------------


def _pgroup_basis(elements, mul, one, p):
    """Generators and orders presenting a finite abelian p-group as a direct
    product of cyclics, given the complete element list.

    Greedy maximal-order selection with the classical correction step; the
    dict of exponent tuples built along the way doubles as a directness
    check (a collision raises).
    """
    basis, orders = [], []
    table = {one: ()}
    while len(table) < len(elements):
        best, best_k, best_tail = None, 1, None
        for h in elements:
            x, k = h, 1
            while x not in table:
                y = x
                for _ in range(p - 1):
                    y = mul(y, x)
                x, k = y, k * p
            if k > best_k:
                best, best_k, best_tail = h, k, table[x]
        h, k = best, best_k
        for i, c_i in enumerate(best_tail):
            if c_i % k:
                raise ArithmeticError("p-group basis correction failed")
            if c_i:
                adj, steps = one, (orders[i] - c_i // k) % orders[i]
                for _ in range(steps):
                    adj = mul(adj, basis[i])
                h = mul(h, adj)
        basis.append(h)
        orders.append(k)
        snapshot = list(table.items())
        table = {res: vec + (0,) for res, vec in snapshot}
        cur = one
        for t in range(1, k):
            cur = mul(cur, h)
            for res, vec in snapshot:
                nres = mul(res, cur)
                if nres in table:
                    raise ArithmeticError("p-group basis is not direct")
                table[nres] = vec + (t,)
    return basis, orders


def _component_basis(field: FieldSpec, P: FqPoly, e: int):
    """Generator/order pairs for (F_q[T]/P^e)^*.

    The prime-to-q part (order q^deg(P) - 1) is found by deterministic order
    testing over residues in enumeration order; the (1+P)-part by the
    generic p-group basis computation.
    """
    q = field.q
    local = P
    for _ in range(e - 1):
        local = local * P
    dloc = local.degree
    one = FqPoly.one(field)
    gens: list[FqPoly] = []
    orders: list[int] = []

    cyc = q**P.degree - 1
    ppart = q ** (P.degree * (e - 1))
    if cyc > 1:
        fac = _prime_factors_int(cyc)
        found = None
        for ridx in range(1, q**dloc):
            u = residue_from_index(field, dloc, ridx)
            if poly_gcd(u, P).degree != 0:
                continue
            t = pow_mod(u, ppart, local)
            if all(pow_mod(t, cyc // ell, local) != one for ell in fac):
                found = t
                break
        assert found is not None, "cyclic part generator search failed"
        gens.append(found)
        orders.append(cyc)

    if e > 1:
        elems = []
        for widx in range(ppart):
            w = residue_from_index(field, P.degree * (e - 1), widx)
            elems.append(residue_index((one + P * w) % local, dloc))
        elems.sort()

        def mul_idx(a: int, b: int) -> int:
            pa = residue_from_index(field, dloc, a)
            pb = residue_from_index(field, dloc, b)
            return residue_index((pa * pb) % local, dloc)

        pbasis, porders = _pgroup_basis(
            elems, mul_idx, residue_index(one, dloc), q
        )
        gens.extend(residue_from_index(field, dloc, g) for g in pbasis)
        orders.extend(porders)
    return local, gens, orders


class UnitGroup:
    """Explicit basis plus full discrete-log table for (F_q[T]/Q)^*."""

    def __init__(
        self,
        modulus: Modulus,
        generators: tuple[FqPoly, ...],
        orders: tuple[int, ...],
        residues: np.ndarray,
        dlog_mat: np.ndarray,
    ):
        self.modulus = modulus
        self.generators = generators
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

    def reduction_kernel_rows(self, which: int) -> np.ndarray:
        """Rows of the kernel of (A/Q)^* -> (A/(Q/P))^* for the which-th
        prime factor P of Q: the units 1 + (Q/P) a with deg a < deg P.  The
        products (Q/P) a have degree < deg Q, so they need no reduction and
        adding 1 only changes digit 0."""
        modulus = self.modulus
        q, Q = modulus.field.q, modulus.poly
        P = modulus.factors[which][0]
        Qp = poly_divmod(Q, P)[0]
        prods = scale_mod_many(
            q, Q.coeffs, np.arange(q**P.degree), residue_index(Qp, Q.degree)
        )
        low = prods % q
        rows, unit = self.rows_of(prods - low + (low + 1) % q)
        return np.sort(rows[unit])

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


def _power_blocks(q: int, mod_digits, table, g: int, m: int) -> np.ndarray:
    """The m blocks table * g^t mod Q, t < m, by doubling: each call also
    squares g^k, carried as one extra row."""
    out, gk, need = table, g, m * len(table)
    while len(out) < need:
        more = scale_mod_many(q, mod_digits, np.append(out[: need - len(out)], gk), gk)
        out, gk = np.concatenate([out, more[:-1]]), more[-1]
    return out


def unit_group(modulus: Modulus) -> UnitGroup:
    """Construct and verify the unit-group presentation."""
    field = modulus.field
    q = field.q
    Q = modulus.poly
    dQ = Q.degree
    gens: list[FqPoly] = []
    orders: list[int] = []
    for P, e in modulus.factors:
        local, lgens, lorders = _component_basis(field, P, e)
        other = poly_divmod(Q, local)[0]
        if other.degree == 0:
            lifted = lgens
        else:
            _, _, v = ext_gcd(local, other)  # v*other == 1 mod local
            lift_unit = (other * v) % Q
            one = FqPoly.one(field)
            lifted = [(one + (g - one) * lift_unit) % Q for g in lgens]
        gens.extend(lifted)
        orders.extend(lorders)

    res = np.array([residue_index(FqPoly.one(field), dQ)], dtype=np.int64)
    vecs = np.zeros((1, 0), dtype=np.int64)
    for g, m in zip(gens, orders):
        res = _power_blocks(q, Q.coeffs, res, residue_index(g, dQ), m)
        exps = np.repeat(np.arange(m, dtype=np.int64), len(vecs))
        vecs = np.hstack([np.tile(vecs, (m, 1)), exps[:, None]])

    order = np.argsort(res, kind="stable")
    group = UnitGroup(
        modulus=modulus,
        generators=tuple(gens),
        orders=tuple(orders),
        residues=res[order],
        dlog_mat=vecs[order],
    )
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


def _trivial_on_rows(group: UnitGroup, K, rows) -> np.ndarray:
    """Per exponent row of K, whether that character is 1 on the units at
    the given rows: an exact integer test, phases scaled to the lcm L of
    the orders and summed mod L.  K is taken in chunks so that each phase
    matrix holds about 2^18 entries."""
    K = np.asarray(K, dtype=np.int64).reshape(len(K), group.rank)
    if group.rank == 0:
        return np.ones(len(K), dtype=bool)
    L = math.lcm(*group.orders)
    weights = K * (L // np.array(group.orders, dtype=np.int64))
    dlogs = group.dlog_mat[rows].T
    step = max(1, (1 << 18) // max(1, dlogs.shape[1]))
    out = np.empty(len(K), dtype=bool)
    for s in range(0, len(K), step):
        out[s : s + step] = ~np.any((weights[s : s + step] @ dlogs) % L, axis=1)
    return out


def _primitive_mask(group: UnitGroup, K) -> np.ndarray:
    """Per exponent row of K, whether that character is non-trivial on the
    kernel of reduction to Q/P for every prime P dividing Q."""
    mask = np.ones(len(K), dtype=bool)
    for which in range(len(group.modulus.factors)):
        mask &= ~_trivial_on_rows(group, K, group.reduction_kernel_rows(which))
    return mask


def _even_mask(group: UnitGroup, K) -> np.ndarray:
    """Per exponent row of K, whether that character is 1 on the nonzero
    constants F_q^*."""
    rows, _ = group.rows_of(np.arange(1, group.modulus.field.q))
    return _trivial_on_rows(group, K, rows)


def all_characters(group: UnitGroup) -> list[DirichletChar]:
    """All phi(Q) characters in lexicographic exponent order, with
    primitivity flags from one kernel test per prime factor."""
    grid = list(itertools.product(*[range(m) for m in group.orders]))
    K = np.array(grid, dtype=np.int64).reshape(len(grid), group.rank)
    primitive = _primitive_mask(group, K)
    return [
        DirichletChar(
            group=group,
            exponents=exps,
            index=idx,
            primitive=bool(primitive[idx]),
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
