"""Structure of (F_q[T]/Q)^* and the Dirichlet characters mod Q.

The unit group is presented by an explicit generator basis with orders, plus
a full discrete-log table mapping every coprime residue (in its integer
encoding) to its exponent vector.  The basis is assembled per prime-power
factor of Q: the part of order q^d - 1 comes from deterministic order
testing in residue-enumeration order, the (1+P)-part from a generic abelian
p-group basis computation over its elements, and the factors are glued by
CRT.  The bijection (a_1..a_r) -> prod g_j^a_j is verified exhaustively at
construction, so any defect in the structure computation fails loudly.

Characters are exponent vectors against that basis; values are unit-circle
complex numbers computed at call time.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ffmoments._backend import scale_mod_many
from ffmoments.ffpoly import (
    FieldSpec,
    FqPoly,
    _prime_factors_int,
    enumerate_irreducible,
    ext_gcd,
    monic_index,
    poly_divmod,
    poly_gcd,
    pow_mod,
    render_poly,
    residue_from_index,
    residue_index,
)

UNIT_GROUP_CACHE_SCHEMA = 1


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


def euler_phi(m: Modulus) -> int:
    """Euler totient of the modulus (order of the unit group)."""
    return m.phi


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
        from_cache: bool = False,
    ):
        self.modulus = modulus
        self.generators = generators
        self.orders = orders
        self.residues = residues  # sorted unit residue indices, int64
        self.dlog_mat = dlog_mat  # (phi, r) exponent rows aligned to residues
        self.from_cache = from_cache
        self.dlog: dict[int, tuple[int, ...]] = {
            int(ridx): tuple(int(v) for v in vec)
            for ridx, vec in zip(residues, dlog_mat)
        }
        self._row_of = {int(r): i for i, r in enumerate(residues)}
        self._kernel_rows: dict[int, np.ndarray] = {}
        self._monic_rows: dict[int, np.ndarray] = {}

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def order(self) -> int:
        return self.modulus.phi

    def dlog_of(self, f: FqPoly) -> tuple[int, ...] | None:
        """Exponent vector of f mod Q, or None when gcd(f, Q) != 1."""
        r = f % self.modulus.poly
        return self.dlog.get(residue_index(r, self.modulus.degree))

    def monic_unit_rows(self, n: int) -> np.ndarray:
        """Rows (into residues) of the coprime monic polynomials of degree n,
        ascending; valid for 0 <= n < deg(Q)."""
        if n not in self._monic_rows:
            q = self.modulus.field.q
            lo = np.searchsorted(self.residues, q**n)
            hi = np.searchsorted(self.residues, 2 * q**n)
            self._monic_rows[n] = np.arange(lo, hi, dtype=np.int64)
        return self._monic_rows[n]

    def reduction_kernel_rows(self, which: int) -> np.ndarray:
        """Rows of the kernel of (A/Q)^* -> (A/(Q/P))^* for the which-th
        prime factor P of Q."""
        if which not in self._kernel_rows:
            field = self.modulus.field
            P = self.modulus.factors[which][0]
            Qp = poly_divmod(self.modulus.poly, P)[0]
            rows = []
            one = FqPoly.one(field)
            for aidx in range(field.q**P.degree):
                a = residue_from_index(field, P.degree, aidx)
                u = (one + Qp * a) % self.modulus.poly
                ridx = residue_index(u, self.modulus.degree)
                row = self._row_of.get(ridx)
                if row is not None:
                    rows.append(row)
            self._kernel_rows[which] = np.array(sorted(rows), dtype=np.int64)
        return self._kernel_rows[which]

    def verify_bijection(self, exhaustive: bool = True, rng_seed: int = 12345):
        """Check that the exponent-grid map really is a bijection onto the
        units.  Exhaustive mode validates coprimality of every residue;
        otherwise a size check plus 100 random power-product round-trips."""
        phi = self.modulus.phi
        if len(self.dlog) != phi or len(set(self.dlog)) != phi:
            raise ArithmeticError("unit table size mismatch")
        if self.dlog.get(residue_index(FqPoly.one(self.modulus.field), self.modulus.degree)) != (0,) * self.rank:
            raise ArithmeticError("dlog(1) is not the zero vector")
        if exhaustive:
            for ridx in self.dlog:
                u = residue_from_index(
                    self.modulus.field, self.modulus.degree, int(ridx)
                )
                if poly_gcd(u, self.modulus.poly).degree != 0:
                    raise ArithmeticError("non-unit residue in table")
        else:
            rng = random.Random(rng_seed)
            items = sorted(self.dlog.items())
            for _ in range(min(100, len(items))):
                ridx, vec = items[rng.randrange(len(items))]
                acc = FqPoly.one(self.modulus.field)
                for g, a in zip(self.generators, vec):
                    acc = (acc * pow_mod(g, a, self.modulus.poly)) % self.modulus.poly
                if residue_index(acc, self.modulus.degree) != ridx:
                    raise ArithmeticError("random dlog round-trip failed")


def _assemble_unit_group(modulus: Modulus) -> UnitGroup:
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

    mod_digits = np.array(
        [Q.coeff(k) for k in range(dQ + 1)], dtype=np.int64
    )
    res = np.array([residue_index(FqPoly.one(field), dQ)], dtype=np.int64)
    vecs = np.zeros((1, 0), dtype=np.int64)
    for g, m in zip(gens, orders):
        blocks = [res]
        vblocks = [np.hstack([vecs, np.zeros((len(res), 1), np.int64)])]
        cur = g
        for t in range(1, m):
            cidx = residue_index(cur, dQ)
            blocks.append(scale_mod_many(q, mod_digits, res, cidx))
            vblocks.append(
                np.hstack([vecs, np.full((len(res), 1), t, np.int64)])
            )
            cur = (cur * g) % Q
        res = np.concatenate(blocks)
        vecs = np.vstack(vblocks)

    order = np.argsort(res, kind="stable")
    group = UnitGroup(
        modulus=modulus,
        generators=tuple(gens),
        orders=tuple(orders),
        residues=res[order],
        dlog_mat=vecs[order],
    )
    group.verify_bijection(exhaustive=True)
    return group


# ---------------------------------------------------------------------------
# Unit-group cache (versioned JSON, keyed by q and Q)
# ---------------------------------------------------------------------------


def modulus_slug(modulus: Modulus) -> str:
    """Filesystem-safe key for a modulus: field, degree, monic index."""
    return (
        f"q{modulus.field.q}_d{modulus.degree}_i{monic_index(modulus.poly)}"
    )


def unit_group_cache_name(modulus: Modulus) -> str:
    return f"unitgroup_{modulus_slug(modulus)}.json"


def save_unit_group(group: UnitGroup, path: Path) -> None:
    payload = {
        "schema": UNIT_GROUP_CACHE_SCHEMA,
        "q": group.modulus.field.q,
        "modulus": render_poly(group.modulus.poly),
        "generators": [
            residue_index(g, group.modulus.degree) for g in group.generators
        ],
        "orders": list(group.orders),
        "residues": [int(r) for r in group.residues],
        "dlog": [[int(v) for v in row] for row in group.dlog_mat],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True))


def load_unit_group(modulus: Modulus, path: Path) -> UnitGroup:
    payload = json.loads(path.read_text())
    if payload.get("schema") != UNIT_GROUP_CACHE_SCHEMA:
        raise ValueError("unit group cache schema mismatch")
    if payload["q"] != modulus.field.q or payload["modulus"] != render_poly(
        modulus.poly
    ):
        raise ValueError("unit group cache key mismatch")
    gens = tuple(
        residue_from_index(modulus.field, modulus.degree, g)
        for g in payload["generators"]
    )
    group = UnitGroup(
        modulus=modulus,
        generators=gens,
        orders=tuple(payload["orders"]),
        residues=np.array(payload["residues"], dtype=np.int64),
        dlog_mat=np.array(payload["dlog"], dtype=np.int64).reshape(
            len(payload["residues"]), len(gens)
        ),
        from_cache=True,
    )
    group.verify_bijection(exhaustive=False)
    return group


def unit_group(modulus: Modulus, cache_dir: Path | None = None) -> UnitGroup:
    """Construct (or load from cache) the unit-group presentation."""
    if cache_dir is not None:
        path = Path(cache_dir) / unit_group_cache_name(modulus)
        if path.exists():
            return load_unit_group(modulus, path)
        group = _assemble_unit_group(modulus)
        save_unit_group(group, path)
        return group
    return _assemble_unit_group(modulus)


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

    def conjugate(self) -> "DirichletChar":
        exps = tuple(
            (-k) % m for k, m in zip(self.exponents, self.group.orders)
        )
        return character(self.group, exps)

    def __repr__(self):
        return (
            f"DirichletChar(Q={self.group.modulus}, index={self.index}, "
            f"exponents={self.exponents})"
        )


def char_index(group: UnitGroup, exponents: tuple[int, ...]) -> int:
    """Canonical index: position in lexicographic exponent order."""
    idx = 0
    for k, m in zip(exponents, group.orders):
        idx = idx * m + k
    return idx


def _trivial_on_rows(group: UnitGroup, exponents: tuple[int, ...], rows) -> bool:
    """Exact test that the character is 1 on the units at the given rows."""
    if group.rank == 0:
        return True
    L = math.lcm(*group.orders)
    weights = [k * (L // m) % L for k, m in zip(exponents, group.orders)]
    for row in rows:
        vec = group.dlog_mat[int(row)]
        if sum(int(v) * w for v, w in zip(vec, weights)) % L:
            return False
    return True


def is_primitive(chi: DirichletChar) -> bool:
    """True iff chi is non-trivial on the kernel of reduction to Q/P for
    every prime P dividing Q."""
    group = chi.group
    for which in range(len(group.modulus.factors)):
        rows = group.reduction_kernel_rows(which)
        if _trivial_on_rows(group, chi.exponents, rows):
            return False
    return True


def is_even(chi: DirichletChar) -> bool:
    """True iff chi is 1 on the nonzero constants F_q^*."""
    group = chi.group
    rows = [group._row_of[c] for c in range(1, group.modulus.field.q)]
    return _trivial_on_rows(group, chi.exponents, rows)


def character(group: UnitGroup, exponents: tuple[int, ...]) -> DirichletChar:
    """The character with the given exponent vector."""
    exps = tuple(k % m for k, m in zip(exponents, group.orders))
    principal = all(k == 0 for k in exps)
    stub = DirichletChar(
        group=group,
        exponents=exps,
        index=char_index(group, exps),
        primitive=False,
        principal=principal,
    )
    return DirichletChar(
        group=group,
        exponents=exps,
        index=stub.index,
        primitive=is_primitive(stub),
        principal=principal,
    )


def all_characters(group: UnitGroup) -> list[DirichletChar]:
    """All phi(Q) characters in lexicographic exponent order, with
    primitivity flags filled in by the per-prime kernel test."""
    grids = [range(m) for m in group.orders]
    kernel_rows = [
        group.reduction_kernel_rows(i)
        for i in range(len(group.modulus.factors))
    ]
    chars = []
    for idx, exps in enumerate(itertools.product(*grids)):
        exps = tuple(exps)
        primitive = all(
            not _trivial_on_rows(group, exps, rows) for rows in kernel_rows
        )
        chars.append(
            DirichletChar(
                group=group,
                exponents=exps,
                index=idx,
                primitive=primitive,
                principal=all(k == 0 for k in exps),
            )
        )
    return chars


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
