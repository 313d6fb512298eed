"""Polynomial ring arithmetic, irreducibility, enumeration, counting."""

import itertools
import random

import pytest

from ffmoments.ffpoly import (
    FieldSpec,
    FqPoly,
    PolyParseError,
    enumerate_irreducible,
    enumerate_monic,
    irreducible_count_enumerated,
    is_irreducible,
    monic_from_index,
    monic_index,
    parse_poly,
    poly_divmod,
    poly_gcd,
    poly_mul,
    prime_count_exact,
    render_poly,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def P(field, *coeffs):
    return FqPoly(field, coeffs)


class TestFieldSpec:
    def test_prime_required(self):
        with pytest.raises(ValueError):
            FieldSpec(4)
        with pytest.raises(ValueError):
            FieldSpec(1)
        assert FieldSpec(2).q == 2
        assert FieldSpec(101).q == 101


class TestCanonicalForm:
    def test_trimming(self):
        assert P(F3, 1, 2, 0, 0).coeffs == (1, 2)
        assert P(F3, 0, 0).is_zero
        assert P(F3, 3, 6).is_zero  # reduced mod 3

    def test_degree_sentinel_and_norm(self):
        assert FqPoly.zero(F3).degree == -1
        assert FqPoly.zero(F3).norm == 0
        assert P(F3, 0, 0, 1).norm == 9
        assert FqPoly.one(F5).norm == 1

    def test_coefficient_range(self):
        f = P(F3, -1, 7)
        assert all(0 <= c < 3 for c in f.coeffs)
        assert f.coeffs == (2, 1)


class TestMul:
    def test_char2_frobenius(self):
        t1 = P(F2, 1, 1)
        assert t1 * t1 == P(F2, 1, 0, 1)

    def test_direct_expansion(self):
        assert P(F2, 0, 1) * P(F2, 1, 1) == P(F2, 0, 1, 1)

    def test_cross_term_cancels_mod_3(self):
        assert P(F3, 1, 1) * P(F3, 2, 1) == P(F3, 2, 0, 1)

    def test_degree_adds(self):
        rng = random.Random(7)
        for _ in range(50):
            a = P(F5, *[rng.randrange(5) for _ in range(rng.randrange(1, 6))])
            b = P(F5, *[rng.randrange(5) for _ in range(rng.randrange(1, 6))])
            if a.is_zero or b.is_zero:
                continue
            assert (a * b).degree == a.degree + b.degree

    def test_field_mismatch(self):
        with pytest.raises(ValueError, match="field mismatch"):
            poly_mul(P(F2, 1, 1), P(F3, 1, 1))


class TestDivmod:
    def test_worked_division(self):
        q, r = poly_divmod(P(F2, 1, 1, 0, 1), P(F2, 1, 1))
        assert q == P(F2, 0, 1, 1)
        assert r == FqPoly.one(F2)

    def test_identity_divisor(self):
        a = P(F5, 3, 1, 4)
        q, r = poly_divmod(a, FqPoly.one(F5))
        assert q == a and r.is_zero

    def test_inverse_of_mul_example(self):
        q, r = poly_divmod(P(F3, 2, 0, 1), P(F3, 1, 1))
        assert q == P(F3, 2, 1) and r.is_zero

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(P(F3, 1, 1), FqPoly.zero(F3))

    def test_reconstruction_random(self):
        rng = random.Random(11)
        for _ in range(200):
            a = P(F3, *[rng.randrange(3) for _ in range(rng.randrange(8))])
            b = P(F3, *[rng.randrange(3) for _ in range(rng.randrange(1, 5))])
            if b.is_zero:
                continue
            q, r = poly_divmod(a, b)
            assert b * q + r == a
            assert r.is_zero or r.degree < b.degree


class TestRingAxioms:
    def test_associativity_distributivity(self):
        rng = random.Random(13)
        for _ in range(120):
            a, b, c = (
                P(F5, *[rng.randrange(5) for _ in range(rng.randrange(6))])
                for _ in range(3)
            )
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


class TestGcd:
    def test_examples(self):
        t = FqPoly.variable(F3)
        assert poly_gcd(t, t * t) == t
        assert poly_gcd(P(F3, 1, 1), P(F3, 2, 1)) == FqPoly.one(F3)
        assert poly_gcd(P(F2, 1, 0, 1), P(F2, 1, 1)) == P(F2, 1, 1)

    def test_monic_result(self):
        g = poly_gcd(P(F5, 2, 4), P(F5, 3, 1, 2))
        assert g.is_monic

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(FqPoly.zero(F3), FqPoly.zero(F3))


class TestIrreducible:
    def test_examples(self):
        assert is_irreducible(P(F2, 1, 1, 1))
        assert not is_irreducible(P(F2, 1, 0, 1))
        assert is_irreducible(P(F3, 1, 0, 1))

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible(FqPoly.one(F2))
        with pytest.raises(ValueError):
            is_irreducible(FqPoly.zero(F2))

    @pytest.mark.parametrize("field", [F2, F3, F5])
    def test_trial_division_oracle(self, field):
        # independent oracle: the reducible monics of degree n are exactly
        # the products g*h of monics with deg g + deg h = n, both positive
        q = field.q
        max_deg = 1
        while q ** (max_deg + 1) <= 10**4:
            max_deg += 1

        def monics(d):
            lows = itertools.product(range(q), repeat=d)
            return [FqPoly(field, list(low) + [1]) for low in lows]

        for n in range(1, max_deg + 1):
            products = set()
            for d in range(1, n // 2 + 1):
                hs = monics(n - d)
                products.update(g * h for g in monics(d) for h in hs)
            for idx in range(q**n):
                f = monic_from_index(field, n, idx)
                reducible = f in products
                assert is_irreducible(f) == (not reducible), str(f)


class TestEnumeration:
    def test_monic_lexicographic(self):
        assert [str(p) for p in enumerate_monic(F2, 2)] == [
            "T^2",
            "T^2 + 1",
            "T^2 + T",
            "T^2 + T + 1",
        ]
        assert [str(p) for p in enumerate_monic(F3, 1)] == ["T", "T + 1", "T + 2"]
        assert enumerate_monic(F3, 0) == [FqPoly.one(F3)]
        assert len(enumerate_monic(F3, 2)) == 9

    def test_irreducible_examples(self):
        assert {str(p) for p in enumerate_irreducible(F2, 3)} == {
            "T^3 + T + 1",
            "T^3 + T^2 + 1",
        }
        assert {str(p) for p in enumerate_irreducible(F2, 1)} == {"T", "T + 1"}
        deg2 = enumerate_irreducible(F3, 2)
        assert len(deg2) == 3
        assert P(F3, 1, 0, 1) in deg2

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            enumerate_irreducible(F3, 0)

    def test_index_round_trip(self):
        for idx in range(27):
            f = monic_from_index(F3, 3, idx)
            assert monic_index(f) == idx


class TestPrimeCount:
    def test_examples(self):
        assert prime_count_exact(F2, 4) == 3
        assert prime_count_exact(F3, 2) == 3
        assert prime_count_exact(F2, 1) == 2

    @pytest.mark.parametrize("field,n_max", [(F2, 10), (F3, 7), (F5, 5)])
    def test_formula_matches_enumeration(self, field, n_max):
        for n in range(1, n_max + 1):
            assert prime_count_exact(field, n) == irreducible_count_enumerated(
                field, n
            )

    @pytest.mark.parametrize("field,n_max", [(F2, 14), (F3, 9), (F5, 6)])
    def test_count_bound(self, field, n_max):
        q = field.q
        for n in range(1, n_max + 1):
            drift = abs(prime_count_exact(field, n) - q**n / n)
            assert drift <= 3 * q ** (n / 2) / n


class TestTextFormat:
    def test_render(self):
        assert render_poly(FqPoly.zero(F3)) == "0"
        assert render_poly(P(F3, 1, 2, 0, 1)) == "T^3 + 2*T + 1"
        assert render_poly(P(F3, 0, 1)) == "T"

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(100):
            f = P(F5, *[rng.randrange(5) for _ in range(rng.randrange(7))])
            assert parse_poly(F5, render_poly(f)) == f

    def test_shorthands(self):
        assert parse_poly(F3, "T") == FqPoly.variable(F3)
        assert parse_poly(F3, "T^2") == P(F3, 0, 0, 1)
        assert parse_poly(F3, "2T + 1") == P(F3, 1, 2)

    def test_error_position(self):
        with pytest.raises(PolyParseError) as exc:
            parse_poly(F3, "T^2 + @!")
        assert exc.value.position == 6
        with pytest.raises(PolyParseError):
            parse_poly(F3, "")
