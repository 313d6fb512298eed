"""Unit-group structure, Dirichlet characters, primitivity."""

import importlib
import json
import math
import pkgutil
import random
from pathlib import Path

import numpy as np
import pytest

import ffmoments
from ffmoments import chargroup, ffpoly
from ffmoments._backend import scale_mod_many
from ffmoments.chargroup import (
    UnitGroup,
    _even_mask,
    _exponent_grid,
    _power_blocks,
    _trivial_on_rows,
    all_characters,
    char_index,
    character_values,
    exponent_rows,
    factor_modulus,
    primitive_count_inclusion_exclusion,
    unit_group,
)
from ffmoments.cli import main as cli_main
from ffmoments.config import load_config
from ffmoments.ffpoly import (
    FieldSpec,
    FqPoly,
    _prime_factors_int,
    enumerate_irreducible,
    enumerate_monic,
    monic_from_index,
    parse_poly,
    poly_divmod,
    poly_gcd,
    pow_mod,
    residue_from_index,
    residue_index,
)
from ffmoments.lfunc import primitive_family

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)


def modulus(field, text):
    return factor_modulus(parse_poly(field, text))


def oracle_factor_modulus(Q):
    """Prime-power factors (in degree, then index order) and Euler totient of
    Q, by FqPoly trial division against the enumerated irreducibles."""
    q = Q.field.q
    rem = Q
    factors = []
    d = 1
    while rem.degree >= 1 and d <= Q.degree:
        for P in enumerate_irreducible(Q.field, d):
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
    assert rem.degree == 0 and rem.coeffs[0] == 1
    phi = 1
    for P, e in factors:
        phi *= q ** (P.degree * e) - q ** (P.degree * (e - 1))
    return factors, phi


def oracle_kernel_rows(group, which):
    """Rows of the units 1 + (Q/P) a mod Q, deg a < deg P, one FqPoly
    product and reduction per a."""
    field, Q = group.modulus.field, group.modulus.poly
    P = group.modulus.factors[which][0]
    Qp = poly_divmod(Q, P)[0]
    row_of = {int(r): i for i, r in enumerate(group.residues)}
    rows = []
    for aidx in range(field.q**P.degree):
        a = residue_from_index(field, P.degree, aidx)
        u = (FqPoly.one(field) + Qp * a) % Q
        row = row_of.get(residue_index(u, Q.degree))
        if row is not None:
            rows.append(row)
    return sorted(rows)


# ---------------------------------------------------------------------------
# Oracles: the unit group built per modulus in FqPoly arithmetic, and
# primitivity by the reduction kernel of each prime factor of Q
# ---------------------------------------------------------------------------


def oracle_ext_gcd(a, b):
    """(g, u, v) with monic g = gcd(a, b) = u*a + v*b."""
    field = a.field
    r0, r1 = a, b
    u0, u1 = FqPoly.one(field), FqPoly.zero(field)
    v0, v1 = FqPoly.zero(field), FqPoly.one(field)
    while not r1.is_zero:
        qt, rm = poly_divmod(r0, r1)
        r0, r1 = r1, rm
        u0, u1 = u1, u0 - qt * u1
        v0, v1 = v1, v0 - qt * v1
    lead = r0.coeffs[-1]
    if lead != 1:
        inv = FqPoly.constant(field, pow(lead, field.q - 2, field.q))
        r0, u0, v0 = inv * r0, inv * u0, inv * v0
    return r0, u0, v0


def oracle_pgroup_basis(elements, mul, one, p):
    """Generators and orders presenting a finite abelian p-group as a direct
    product of cyclics, given the complete element list: greedy
    maximal-order selection with the classical correction step; the dict of
    exponent tuples doubles as a directness check."""
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


def oracle_component_basis(field, P, e):
    """Generator/order pairs for (F_q[T]/P^e)^*: the part of order
    q^deg(P) - 1 by order testing over residues in enumeration order, the
    (1+P)-part by the closed-form basis 1 + T^i P^j (i < deg P, 0 < j < e,
    q not dividing j), each order found by repeated q-th powers."""
    q = field.q
    local = P
    for _ in range(e - 1):
        local = local * P
    dloc = local.degree
    one = FqPoly.one(field)
    gens, orders = [], []
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
        gens.append(found)
        orders.append(cyc)
    P_j = one
    for j in range(1, e):
        P_j = P_j * P
        if j % q == 0:
            continue
        T_i = one
        for _ in range(P.degree):
            g = (one + T_i * P_j) % local
            power, order = g, 1
            while power != one:
                power, order = pow_mod(power, q, local), order * q
            gens.append(g)
            orders.append(order)
            T_i = T_i * FqPoly.variable(field)
    return local, gens, orders


def oracle_one_plus_p_orders(field, P, e):
    """Orders of the greedy p-group basis of the (1+P)-part of
    (F_q[T]/P^e)^*, over its sorted element list in FqPoly arithmetic."""
    local = P
    for _ in range(e - 1):
        local = local * P
    dloc, one = local.degree, FqPoly.one(field)
    elems = []
    for widx in range(field.q ** (P.degree * (e - 1))):
        w = residue_from_index(field, P.degree * (e - 1), widx)
        elems.append(residue_index((one + P * w) % local, dloc))

    def mul_idx(a, b):
        pa = residue_from_index(field, dloc, a)
        pb = residue_from_index(field, dloc, b)
        return residue_index((pa * pb) % local, dloc)

    one_idx = residue_index(one, dloc)
    return oracle_pgroup_basis(sorted(elems), mul_idx, one_idx, field.q)[1]


def oracle_unit_group(modulus):
    """The unit group built per modulus: each factor's basis in FqPoly
    arithmetic, lifted by the ext_gcd idempotent, then the power loop."""
    field, Q = modulus.field, modulus.poly
    q, dQ = field.q, Q.degree
    one = FqPoly.one(field)
    gens, orders = [], []
    for P, e in modulus.factors:
        local, lgens, lorders = oracle_component_basis(field, P, e)
        other = poly_divmod(Q, local)[0]
        if other.degree > 0:
            _, _, v = oracle_ext_gcd(local, other)  # v*other == 1 mod local
            lift_unit = (other * v) % Q
            lgens = [(one + (g - one) * lift_unit) % Q for g in lgens]
        gens.extend(lgens)
        orders.extend(lorders)
    res = np.array([1], dtype=np.int64)
    vecs = np.zeros((1, 0), dtype=np.int64)
    for g, m in zip(gens, orders):
        res = _power_blocks(q, Q.coeffs, res, residue_index(g, dQ), m)
        exps = np.repeat(np.arange(m, dtype=np.int64), len(vecs))
        vecs = np.hstack([np.tile(vecs, (m, 1)), exps[:, None]])
    order = np.argsort(res, kind="stable")
    gens = np.array([residue_index(g, dQ) for g in gens], dtype=np.int64)
    return UnitGroup(modulus, gens, tuple(orders), res[order], vecs[order])


def reduction_kernel_rows(group, which):
    """Rows of the kernel of (A/Q)^* -> (A/(Q/P))^* for the which-th prime
    factor P of Q: the units 1 + (Q/P) a with deg a < deg P, by one
    scale_mod_many; the products have degree < deg Q, so adding 1 only
    changes digit 0."""
    modulus = group.modulus
    q, Q = modulus.field.q, modulus.poly
    P = modulus.factors[which][0]
    Qp = poly_divmod(Q, P)[0]
    prods = scale_mod_many(
        q, Q.coeffs, np.arange(q**P.degree), residue_index(Qp, Q.degree)
    )
    low = prods % q
    rows, unit = group.rows_of(prods - low + (low + 1) % q)
    return np.sort(rows[unit])


def oracle_primitive_mask(group, K):
    """Per exponent row of K, whether that character is non-trivial on the
    kernel of reduction to Q/P for every prime P dividing Q."""
    mask = np.ones(len(K), dtype=bool)
    for which in range(len(group.modulus.factors)):
        dlogs = group.dlog_mat[reduction_kernel_rows(group, which)]
        mask &= ~_trivial_on_rows(group.orders, K, dlogs)
    return mask


def oracle_primitive_root(q: int, P: np.ndarray) -> int:
    """The first index in [1, q^k) of a primitive root mod the prime P of
    degree k: every candidate, raised to c/l for every prime l | c = q^k - 1,
    is a row of one square-and-multiply mod P; each step multiplies only the
    rows whose exponent has that bit set, and squares each candidate once."""
    c = q ** (len(P) - 1) - 1
    ells = np.array(_prime_factors_int(c), dtype=np.int64)
    exps = np.repeat(c // ells, c)  # row l c + j: candidate j + 1 to c / ells[l]
    result, acc = np.ones_like(exps), np.arange(1, c + 1, dtype=np.int64)
    for bit in range(int(exps.max()).bit_length()):
        sel = np.flatnonzero(exps >> bit & 1)
        rows, by = np.append(result[sel], acc), np.append(acc[sel % c], acc)
        both = scale_mod_many(q, P, rows, by)
        result[sel], acc = both[: len(sel)], both[len(sel) :]
    return 1 + int(np.argmax(np.all((result != 1).reshape(len(ells), c), axis=0)))


def assert_same_group(got, want):
    assert got.generators.dtype == want.generators.dtype == np.int64
    assert got.generators.tolist() == want.generators.tolist()
    assert got.orders == want.orders
    for name in ("residues", "dlog_mat"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# q = 2, 3, 5; squarefree and not, one or several prime factors
KERNEL_MODULI = [
    (F2, "T^4"),
    (F2, "T^3 + T"),  # T (T + 1)^2
    (F2, "T^3 + T + 1"),
    (F2, "T^5 + T^4 + T^2"),  # T^2 (T^3 + T^2 + 1)
    (F3, "T^2"),
    (F3, "T^3 + T^2"),
    (F3, "T^4 + 2*T + 2"),
    (F3, "T^4 + 2*T^2 + 1"),  # (T^2 + 1)^2
    (F5, "T^2 + T + 2"),
    (F5, "T^3"),
    (F5, "T^3 + 4*T"),  # T (T + 1) (T + 4)
]


class TestFactorModulus:
    def test_ramified_square(self):
        m = modulus(F3, "T^2")
        assert [(str(P), e) for P, e in m.factors] == [("T", 2)]
        assert m.phi == 6

    def test_split_product(self):
        m = modulus(F2, "T^2 + T")
        assert [(str(P), e) for P, e in m.factors] == [("T", 1), ("T + 1", 1)]
        assert m.phi == 1

    def test_irreducible(self):
        m = modulus(F3, "T^2 + 1")
        assert len(m.factors) == 1 and m.factors[0][1] == 1
        assert m.phi == 8

    def test_product_reconstructs(self):
        rng = random.Random(3)
        for _ in range(25):
            idx = rng.randrange(3**4)
            m = factor_modulus(monic_from_index(F3, 4, idx))
            prod = FqPoly.one(F3)
            for P, e in m.factors:
                for _ in range(e):
                    prod = prod * P
            assert prod == m.poly

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            factor_modulus(FqPoly(F3, (1, 1)))  # degree 1
        with pytest.raises(ValueError):
            factor_modulus(FqPoly(F3, (1, 0, 2)))  # not monic

    @pytest.mark.parametrize(
        "q, d",
        [
            pytest.param(q, d, id=f"q{q}-d{d}")
            for q, top in ((2, 7), (3, 5), (5, 3))
            for d in range(2, top + 1)
        ],
    )
    def test_matches_trial_division_oracle(self, q, d):
        field = FieldSpec(q)
        for idx in range(q**d):
            Q = monic_from_index(field, d, idx)
            m = factor_modulus(Q)
            factors, phi = oracle_factor_modulus(Q)
            assert m.factors == tuple(factors), str(Q)
            assert m.phi == phi and m.poly == Q

    def test_modulus_list_makes_no_poly_arithmetic(self, monkeypatch):
        cfg = load_config(CONFIGS / "moments_q3.json")

        def forbidden(*args):
            raise AssertionError("FqPoly division or irreducible list")

        for info in pkgutil.iter_modules(ffmoments.__path__):
            module = importlib.import_module(f"ffmoments.{info.name}")
            for name in ("poly_divmod", "enumerate_irreducible"):
                if getattr(module, name, None) is getattr(ffpoly, name):
                    monkeypatch.setattr(module, name, forbidden)
        assert len(cfg.modulus_list()) == 360

    def test_irreducible_rows_are_read_only(self):
        factor_modulus(parse_poly(F3, "T^4 + T^3 + T + 1"))
        rows = chargroup._irreducible_rows(3, 2, 4)
        assert rows.shape == (3, 5, 2)  # T^2 + 1, T^2 + T + 2, T^2 + 2T + 2
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0, 0] = 2


class TestEulerPhi:
    def test_examples(self):
        assert modulus(F3, "T^2").phi == 6
        assert modulus(F3, "T^2 + 1").phi == 8
        assert modulus(F2, "T^3").phi == 4

    @pytest.mark.parametrize("text", ["T^2", "T^2 + T", "T^3 + T + 1", "T^3"])
    def test_matches_exhaustive_unit_count(self, text):
        m = modulus(F3, text)
        count = 0
        for idx in range(3**m.degree):
            r = FqPoly(F3, [(idx // 3**k) % 3 for k in range(m.degree)])
            if not r.is_zero and poly_gcd(r, m.poly).degree == 0:
                count += 1
        assert m.phi == count


class TestUnitGroup:
    @pytest.mark.parametrize("field", [F2, F3, F5], ids=["q2", "q3", "q5"])
    @pytest.mark.parametrize("m", [2, 3, 9, 242])
    def test_power_blocks_match_per_power_products(self, field, m):
        q = field.q
        Q = modulus(field, {2: "T^5 + T^2 + 1", 3: "T^3 + 2*T + 1", 5: "T^3 + T"}[q])
        d, rng = Q.degree, random.Random(10 * q + m)
        table = np.array([rng.randrange(1, q**d) for _ in range(3)], np.int64)
        g = residue_from_index(field, d, rng.randrange(2, q**d))
        got = _power_blocks(q, Q.poly.coeffs, table, residue_index(g, d), m)
        expected, g_t = [], FqPoly.one(field)
        for _ in range(m):
            for a in table:
                u = (residue_from_index(field, d, int(a)) * g_t) % Q.poly
                expected.append(residue_index(u, d))
            g_t = (g_t * g) % Q.poly
        assert got.tolist() == expected

    def test_t_squared_structure(self):
        g = unit_group(modulus(F3, "T^2"))
        assert math.prod(g.orders) == 6
        assert math.lcm(*g.orders) == 6  # the group is cyclic of order 6
        # the worked generator: 2+T has full order 6
        el = parse_poly(F3, "T + 2")
        cur, order = el, 1
        while cur != FqPoly.one(F3):
            cur = (cur * el) % g.modulus.poly
            order += 1
        assert order == 6
        assert g.dlog_of(FqPoly.one(F3)) == (0,) * g.rank

    def test_prime_modulus_cyclic(self):
        g = unit_group(modulus(F3, "T^2 + 1"))
        assert math.lcm(*g.orders) == 8 and math.prod(g.orders) == 8

    def test_degenerate_trivial_group(self):
        g = unit_group(modulus(F2, "T^2 + T"))
        assert g.rank == 0 and g.order == 1

    def test_bijection_verified(self):
        g = unit_group(modulus(F2, "T^3"))
        g.verify_bijection()

    @staticmethod
    def _rebuilt(g, residues, dlog_mat):
        return UnitGroup(g.modulus, g.generators, g.orders, residues, dlog_mat)

    def test_non_unit_residue_rejected(self):
        # T^2 + T = T(T + 1): the residue T (index 3) is not a unit; it
        # replaces one unit in an otherwise valid table
        g = unit_group(modulus(F3, "T^2 + T"))
        residues = g.residues.copy()
        residues[-1] = 3
        order = np.argsort(residues)
        with pytest.raises(ArithmeticError, match="non-unit"):
            self._rebuilt(g, residues[order], g.dlog_mat[order]).verify_bijection()

    def test_duplicated_residue_rejected(self):
        # a table of the right length whose residues are not distinct
        g = unit_group(modulus(F3, "T^2 + 1"))
        residues = g.residues.copy()
        residues[1] = residues[0]
        with pytest.raises(ArithmeticError, match="distinct"):
            self._rebuilt(g, residues, g.dlog_mat).verify_bijection()

    def test_dlog_of_one_must_be_zero(self):
        g = unit_group(modulus(F3, "T^2 + 1"))
        dlog_mat = g.dlog_mat.copy()
        dlog_mat[0] = 1  # row 0 is the residue 1
        with pytest.raises(ArithmeticError, match="dlog"):
            self._rebuilt(g, g.residues, dlog_mat).verify_bijection()

    def test_truncated_table_rejected(self):
        g = unit_group(modulus(F3, "T^2"))
        with pytest.raises(ArithmeticError, match="size"):
            self._rebuilt(g, g.residues[:-1], g.dlog_mat[:-1]).verify_bijection()

    def test_dlog_covers_exactly_units(self):
        m = modulus(F3, "T^3 + T^2")
        g = unit_group(m)
        assert len(g.residues) == len(g.dlog_mat) == m.phi
        for ridx in g.residues.tolist():
            r = FqPoly(F3, [(ridx // 3**k) % 3 for k in range(m.degree)])
            assert poly_gcd(r, m.poly).degree == 0


class TestCharacters:
    def test_count_and_flags(self):
        g = unit_group(modulus(F3, "T^2"))
        chars = all_characters(g)
        assert len(chars) == 6
        assert sum(c.principal for c in chars) == 1
        assert sum(c.primitive for c in chars) == 4

    def test_primitive_counts_match_sieve(self):
        cases = [(F3, t) for t in ["T^2", "T^2 + 1", "T^2 + T", "T^3", "T^3 + T"]]
        # a degree-10 prime (e = 1) alone and times T^2 (e = 2)
        cases += [(F2, "T^10 + T^3 + 1"), (F2, "T^12 + T^5 + T^2")]
        for field, text in cases:
            m = modulus(field, text)
            chars = all_characters(unit_group(m))
            assert sum(c.primitive for c in chars) == (
                primitive_count_inclusion_exclusion(m)
            )

    def test_principal_never_primitive(self):
        for text in ["T^2", "T^2 + 1", "T^3"]:
            g = unit_group(modulus(F3, text))
            principal = [c for c in all_characters(g) if c.principal]
            assert len(principal) == 1 and not principal[0].primitive

    def test_nonprincipal_mod_irreducible_primitive(self):
        g = unit_group(modulus(F3, "T^2 + 1"))
        for c in all_characters(g):
            assert c.primitive == (not c.principal)

    def test_kernel_primitivity_t_squared(self):
        # kernel of reduction mod T is {1, 1+T, 1+2T}; primitive characters
        # are exactly those non-trivial on it
        g = unit_group(modulus(F3, "T^2"))
        kernel = [parse_poly(F3, s) for s in ["1", "T + 1", "2*T + 1"]]
        for c in all_characters(g):
            trivial = all(abs(c(u) - 1) < 1e-12 for u in kernel)
            assert c.primitive == (not trivial)

    def test_conjugate_closure(self):
        for text in ["T^2", "T^3 + T^2 + 1"]:
            g = unit_group(modulus(F3, text))
            chars = all_characters(g)
            K = exponent_rows(g, chars)
            assert char_index(g, K).tolist() == [c.index for c in chars]
            conj = char_index(g, -K % np.array(g.orders))
            for c, j in zip(chars, conj):
                assert chars[j].primitive == c.primitive
                assert chars[j].principal == c.principal

    @pytest.mark.parametrize(
        "field,text", KERNEL_MODULI, ids=[f"q{f.q}-{t}" for f, t in KERNEL_MODULI]
    )
    def test_kernel_rows_match_poly_loop(self, field, text):
        g = unit_group(modulus(field, text))
        for which in range(len(g.modulus.factors)):
            rows = reduction_kernel_rows(g, which)
            assert rows.tolist() == oracle_kernel_rows(g, which)

    def test_is_primitive_matches_flag(self):
        # one character at a time gives the flag the batched test gave
        g = unit_group(modulus(F2, "T^3"))
        for c in all_characters(g):
            assert oracle_primitive_mask(g, [c.exponents])[0] == c.primitive


    @pytest.mark.parametrize(
        "q,text",
        [
            (2, "T^3 + T"),
            (3, "T^3 + T^2"),
            (3, "T^4 + 2*T^2 + 1"),
            (5, "T^3 + 4*T"),
            (5, "T^3"),
            (7, "T^2 + 3*T"),
            (7, "T^3 + 2"),
        ],
    )
    def test_even_mask_matches_all_constants(self, q, text):
        # the exact mask against scalar character values at the q - 1 constants
        g = unit_group(modulus(FieldSpec(q), text))
        K = _exponent_grid(np.arange(g.order), g.orders)
        constants = [parse_poly(FieldSpec(q), str(c)) for c in range(1, q)]
        oracle = np.array(
            [
                all(abs(chi(c) - 1) < 1e-9 for c in constants)
                for chi in all_characters(g)
            ]
        )
        even = _even_mask(g, K)
        assert even.tolist() == oracle.tolist()
        assert even.all() if q == 2 else 0 < even.sum() < g.order


class TestCharEval:
    def test_vanishes_off_units(self):
        g = unit_group(modulus(F3, "T^2"))
        T = FqPoly.variable(F3)
        for c in all_characters(g):
            assert c(T) == 0
            assert c(FqPoly.zero(F3)) == 0
            assert c(T * T) == 0

    def test_principal_is_one_on_units(self):
        g = unit_group(modulus(F3, "T^2 + 1"))
        chi0 = [c for c in all_characters(g) if c.principal][0]
        for n in range(2):
            for f in enumerate_monic(F3, n):
                if poly_gcd(f, g.modulus.poly).degree == 0:
                    assert abs(chi0(f) - 1) < 1e-14

    def test_unit_modulus_values(self):
        g = unit_group(modulus(F3, "T^2"))
        for c in all_characters(g):
            for ridx in g.residues.tolist():
                f = FqPoly(F3, [(ridx // 3**k) % 3 for k in range(2)])
                assert abs(abs(c(f)) - 1) < 1e-14

    def test_worked_value(self):
        import cmath

        g = unit_group(modulus(F3, "T^2"))
        # the primitive character sending 2+T to the primitive 6th root
        target = None
        for c in all_characters(g):
            if c.primitive and abs(
                c(parse_poly(F3, "T + 2")) - cmath.exp(1j * math.pi / 3)
            ) < 1e-12:
                target = c
        assert target is not None

    def test_multiplicativity_random_pairs(self):
        for text in ["T^2", "T^3 + T + 2"]:
            m = modulus(F3, text)
            g = unit_group(m)
            chars = all_characters(g)
            units = [
                FqPoly(F3, [(r // 3**k) % 3 for k in range(m.degree)])
                for r in g.residues.tolist()
            ]
            rng = random.Random(42)
            for _ in range(1000):
                a = units[rng.randrange(len(units))]
                b = units[rng.randrange(len(units))]
                c = chars[rng.randrange(len(chars))]
                assert abs(c(a * b) - c(a) * c(b)) < 1e-12

    def test_orthogonality_all_residues(self):
        for text in ["T^2", "T^2 + 1", "T^3 + T^2"]:
            m = modulus(F3, text)
            g = unit_group(m)
            for c in all_characters(g):
                if c.principal:
                    continue
                total = sum(
                    c(FqPoly(F3, [(r // 3**k) % 3 for k in range(m.degree)]))
                    for r in range(3**m.degree)
                )
                assert abs(total) < 1e-9

    def test_value_matrix_matches_char_eval(self):
        g = unit_group(modulus(F3, "T^2"))
        chars = all_characters(g)
        K = np.array([c.exponents for c in chars], dtype=np.int64)
        V = character_values(g, K)
        for j, c in enumerate(chars):
            for i, ridx in enumerate(g.residues):
                f = FqPoly(F3, [(int(ridx) // 3**k) % 3 for k in range(2)])
                assert abs(V[i, j] - c(f)) < 1e-12


# every monic modulus of these degrees is compared with the oracles
SWEEP = [(F2, d) for d in range(2, 7)] + [(F3, d) for d in range(2, 5)]
SWEEP += [(F5, 2), (F5, 3), (F7, 2)]
# rank 0; a pure p-group; several factors, one of them ramified
SHAPES = [
    (F2, "T^2 + T"),
    (F2, "T^6"),
    (F3, "T^6"),
    (F2, "T^12 + T^5 + T^2"),  # T^2 (T^10 + T^3 + 1)
    (F3, "T^5 + T^3"),  # T^3 (T^2 + 1)
    (F5, "T^3 + 4*T"),  # T (T + 1) (T + 4)
]


def assert_matches_oracles(m):
    g = unit_group(m)
    assert_same_group(g, oracle_unit_group(m))
    chars = all_characters(g)
    K = exponent_rows(g, chars)
    flags = [c.primitive for c in chars]
    assert flags == oracle_primitive_mask(g, K).tolist()
    return g


class TestLocalTables:
    @pytest.mark.parametrize(
        "field,degree", SWEEP, ids=[f"q{f.q}-d{d}" for f, d in SWEEP]
    )
    def test_sweep_matches_old_construction(self, field, degree):
        for idx in range(field.q**degree):
            assert_matches_oracles(factor_modulus(monic_from_index(field, degree, idx)))

    @pytest.mark.parametrize(
        "field,text", SHAPES, ids=[f"q{f.q}-{t}" for f, t in SHAPES]
    )
    def test_shapes_match_old_construction(self, field, text):
        g = assert_matches_oracles(modulus(field, text))
        if text == "T^2 + T":
            assert g.rank == 0
        elif text == "T^6":  # (1 + T F_q[T]) mod T^6 is a non-cyclic p-group
            p_orders = [m for m in g.orders if m % field.q == 0]
            assert len(p_orders) >= 2 and math.prod(p_orders) == field.q**5
            assert len(p_orders) == g.rank or field.q > 2
        else:
            assert len(g.modulus.factors) > 1

    @pytest.mark.parametrize(
        "field,text",
        [(F2, "T^6"), (F3, "T^6 + 1"), (F3, "T^5 + 2*T + 1")],
        ids=["q2-T^6", "q3-(T^2+1)^3", "q3-prime-d5"],
    )
    def test_single_prime_power_needs_no_crt_glue(self, field, text, monkeypatch):
        def forbidden(*args):
            raise AssertionError("CRT idempotent built for one prime power")

        monkeypatch.setattr(chargroup, "_times_idempotent", forbidden)
        m = modulus(field, text)
        assert len(m.factors) == 1
        assert_matches_oracles(m)

    @pytest.mark.parametrize(
        "field,top", [(F2, 8), (F3, 5), (F5, 3), (F7, 3)], ids=["q2", "q3", "q5", "q7"]
    )
    def test_primitive_root_matches_square_and_multiply(self, field, top):
        # for e = 1 the table is r^0, r^1, ..., so r is its residue at index 1
        q = field.q
        for d in range(1, top + 1):
            for P in enumerate_irreducible(field, d):
                if q**d == 2:
                    continue  # T and T + 1 at q = 2: the cyclic part is trivial
                table = chargroup._build_local_table(q, np.array(P.coeffs), 1)
                assert table.orders == (q**d - 1,)
                root = oracle_primitive_root(q, np.array(P.coeffs))
                assert int(table.residues[1]) == root, str(P)

    @pytest.mark.parametrize(
        "field,top", [(F2, 12), (F3, 7), (F5, 5), (F7, 4)], ids=["q2", "q3", "q5", "q7"]
    )
    def test_closed_form_matches_greedy_basis(self, field, top):
        # every P^e, e >= 2, with at most 2^12 residues: the local table is a
        # bijection onto the units, and its p-part orders are those of the
        # greedy basis
        q = field.q
        for k in range(1, top // 2 + 1):
            for e in range(2, top // k + 1):
                for P in enumerate_irreducible(field, k):
                    power = P
                    for _ in range(e - 1):
                        power = power * P
                    local = factor_modulus(power)
                    g = unit_group(local)
                    assert math.prod(g.orders) == local.phi
                    greedy = oracle_one_plus_p_orders(field, P, e)
                    assert [m for m in g.orders if m % q == 0] == greedy, (str(P), e)

    def test_repeated_generator_block_fails_loudly(self, monkeypatch, tmp_path, capsys):
        # T^3 at q = 3 with the generator 1 + T^2 replaced by 1 + T, which is
        # then repeated: the table is not direct, which unit_group catches,
        # and a run on it is an internal error, not a failed check
        good = chargroup._build_local_table(3, np.array([0, 1]), 3)
        assert good.orders == (2, 3, 3)
        blocks = good.residues.reshape(2, 3, 3)
        bad = blocks[:, (np.arange(3)[:, None] + np.arange(3)) % 3, 0].ravel()
        assert len(np.unique(bad)) < len(bad) == 18
        key = (3, (0, 1), 3)
        tampered = good._replace(residues=bad)
        monkeypatch.setattr(chargroup, "_LOCAL_TABLES", {key: tampered})
        with pytest.raises(ArithmeticError, match="distinct"):
            unit_group(modulus(F3, "T^3"))
        cfg = tmp_path / "t3.json"
        cfg.write_text(json.dumps({"schema": 1, "q": 3, "moduli": ["T^3"]}))
        out = str(tmp_path / "out")
        assert cli_main(["enumerate", "--config", str(cfg), "--out", out]) == 3
        err = capsys.readouterr().err
        assert "ArithmeticError: unit residues are not distinct" in err

    def test_family_path_makes_no_poly_arithmetic(self, monkeypatch):
        moduli = [
            modulus(F3, t) for t in ["T^2", "T^3 + T^2", "T^4 + 2*T^2 + 1", "T^5 + T"]
        ]

        def forbidden(*args):
            raise AssertionError("FqPoly arithmetic on the family path")

        monkeypatch.setattr(chargroup, "_LOCAL_TABLES", {})
        for info in pkgutil.iter_modules(ffmoments.__path__):
            module = importlib.import_module(f"ffmoments.{info.name}")
            for name in ("poly_divmod", "poly_mul"):
                if getattr(module, name, None) is getattr(ffpoly, name):
                    monkeypatch.setattr(module, name, forbidden)
        for m in moduli:
            assert primitive_family(m).n_primitive == (
                primitive_count_inclusion_exclusion(m)
            )
        with pytest.raises(AssertionError, match="family path"):
            FqPoly.one(F3) * FqPoly.variable(F3)

    def test_cleared_memo_gives_identical_groups(self, monkeypatch):
        moduli = [modulus(F3, t) for t in ["T^3 + T^2", "T^4 + T^3", "T^2"]]
        warm = [unit_group(m) for m in moduli]
        monkeypatch.setattr(chargroup, "_LOCAL_TABLES", {})
        for m, g in zip(moduli, warm):
            assert_same_group(unit_group(m), g)
        assert len(chargroup._LOCAL_TABLES) == 3  # T^2, T + 1 and T^3

    def test_memo_arrays_are_read_only(self):
        unit_group(modulus(F3, "T^3 + T^2"))
        assert chargroup._LOCAL_TABLES
        for table in chargroup._LOCAL_TABLES.values():
            for array in (table.modulus, table.residues, table.primitive):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[-1]

    def test_tampered_group_leaves_shared_factor_intact(self):
        g = unit_group(modulus(F3, "T^2"))
        g.residues[:] = g.residues[::-1]
        g.dlog_mat[:] = 0
        # T^2 (T + 1) and T^2 again share the local table of T^2
        for text in ("T^3 + T^2", "T^2"):
            assert_matches_oracles(modulus(F3, text))
