"""Unit-group structure, Dirichlet characters, primitivity."""

import math
import random

import numpy as np
import pytest

from ffmoments.chargroup import (
    UnitGroup,
    _power_blocks,
    _primitive_mask,
    all_characters,
    char_index,
    character_values,
    exponent_rows,
    factor_modulus,
    primitive_count_inclusion_exclusion,
    unit_group,
)
from ffmoments.ffpoly import (
    FieldSpec,
    FqPoly,
    enumerate_monic,
    monic_from_index,
    parse_poly,
    poly_divmod,
    poly_gcd,
    residue_from_index,
    residue_index,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def modulus(field, text):
    return factor_modulus(parse_poly(field, text))


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
        # phi(Q) * |kernel| > 2^18: primitivity is tested in chunks
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
            rows = g.reduction_kernel_rows(which)
            assert rows.tolist() == oracle_kernel_rows(g, which)

    def test_is_primitive_matches_flag(self):
        # one character at a time gives the flag the batched test gave
        g = unit_group(modulus(F2, "T^3"))
        for c in all_characters(g):
            assert _primitive_mask(g, [c.exponents])[0] == c.primitive


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
