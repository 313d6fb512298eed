"""L-polynomials, zeta, inverse roots, and the explicit log|L| bounds."""

import cmath
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ffmoments import cli, lfunc
from ffmoments.chargroup import (
    _even_mask,
    all_characters,
    char_index,
    character_values,
    exponent_rows,
    factor_modulus,
    unit_group,
)
from ffmoments.config import load_config
from ffmoments.ffpoly import (
    FieldSpec,
    FqPoly,
    _irreducible_index_table,
    enumerate_irreducible,
    enumerate_monic,
    monic_from_index,
    monic_index,
    parse_poly,
    residue_index,
)
from ffmoments.lfunc import (
    COEFF_TRIM_TOL,
    LPolynomial,
    PrimePowerTable,
    ZetaPoleError,
    abs_l_at,
    l_coefficient_probe,
    l_coefficients,
    log_abs_l,
    log_l_bound_pointwise,
    log_l_bound_simplified,
    loglog_norm,
    monic_residue_counts,
    _unit_rows_of_monics,
    primitive_family,
    rh_root_deviations,
    shifted_log_bound,
    t_period,
    u_at_shift,
    u_on_circle,
    zeta_A,
)
from ffmoments.moments import ShiftSpec

F2 = FieldSpec(2)
F3 = FieldSpec(3)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def fam_t2():
    return primitive_family(factor_modulus(parse_poly(F3, "T^2")))


# ---------------------------------------------------------------------------
# Scalar oracles: one prime (power) at a time, chi(P) by polynomial division
# ---------------------------------------------------------------------------


def oracle_pointwise(chi, t, h):
    field = chi.group.modulus.field
    lnq = math.log(field.q)
    m = chi.group.modulus.degree - 1
    sexp = 0.5 + 1.0 / (h * lnq)
    terms = []
    for d in range(1, h + 1):
        for P in enumerate_irreducible(field, d):
            val = chi(P)
            if val == 0:
                continue
            j = 1
            while j * d <= h:
                weight = h - j * d
                if weight:
                    denom = math.exp(j * d * lnq * sexp)
                    phase = cmath.exp(-1j * t * j * d * lnq)
                    terms.append(val**j * phase * weight / (j * denom))
                j += 1
    total = complex(np.sum(np.array(terms, dtype=np.complex128))) if terms else 0j
    return m / h + total.real / h


def _oracle_two_sums(chi, x, weight_of_degree):
    """sum_{|P|<=x} w(d) chi(P) (h-d)/h / |P|^(1/2+1/log x)
    + (1/2) sum_{|P|<=sqrt x} w(2d) chi(P)^2 / |P|, with w the per-degree
    phase weight."""
    field = chi.group.modulus.field
    lnq = math.log(field.q)
    h = round(math.log(x) / lnq)
    terms = []
    for d in range(1, h + 1):
        for P in enumerate_irreducible(field, d):
            val = chi(P)
            if val == 0:
                continue
            weight = (h - d) / h
            if weight:
                denom = math.exp(d * lnq * (0.5 + 1.0 / (h * lnq)))
                terms.append(weight_of_degree(d) * val * weight / denom)
            if 2 * d <= h:
                terms.append(0.5 * weight_of_degree(2 * d) * val**2 / math.exp(d * lnq))
    total = complex(np.sum(np.array(terms, dtype=np.complex128))) if terms else 0j
    return total.real, chi.group.modulus.degree / h


def oracle_simplified(chi, t, x):
    lnq = math.log(chi.group.modulus.field.q)
    primes, norm_term = _oracle_two_sums(
        chi, x, lambda n: cmath.exp(-1j * t * n * lnq)
    )
    return primes + norm_term


def h_weight(f, spec):
    """The shift-averaging weight (1/2) sum_j a_j |f|^(-i t_j) of Prop 3.2."""
    if f.is_zero:
        raise ValueError("h-weight of the zero polynomial is undefined")
    lnq = math.log(f.field.q)
    return 0.5 * sum(
        a * cmath.exp(-1j * t * f.degree * lnq) for a, t in zip(spec.a, spec.t)
    )


def oracle_shifted(chi, spec, x):
    field = chi.group.modulus.field
    primes, norm_term = _oracle_two_sums(
        chi, x, lambda n: 2 * h_weight(monic_from_index(field, n, 0), spec)
    )
    return primes + (sum(spec.a) + 10.0) * norm_term


def oracle_monic_residue_counts(group, n):
    field = group.modulus.field
    Q = group.modulus.poly
    row_of = {int(r): i for i, r in enumerate(group.residues)}
    counts = np.zeros(len(group.residues), dtype=np.int64)
    for i in range(field.q**n):
        row = row_of.get(residue_index(monic_from_index(field, n, i) % Q, Q.degree))
        if row is not None:
            counts[row] += 1
    return counts


# ---------------------------------------------------------------------------
# Dense oracles: character sums read off the unit-value matrix
# ---------------------------------------------------------------------------


def dense_values(group, chars):
    """Value matrix V[u, c] = chi_c(residue_u)."""
    return character_values(group, exponent_rows(group, chars))


def oracle_l_coefficients(group, chars):
    V = dense_values(group, chars)
    out = np.zeros((len(chars), group.modulus.degree), dtype=np.complex128)
    for n in range(group.modulus.degree):
        out[:, n] = oracle_monic_residue_counts(group, n) @ V
    return out


def oracle_probe(group, chars, n):
    return monic_residue_counts(group, n) @ dense_values(group, chars)


def oracle_prime_power_sums(group, chars, top):
    """sums[c, d, j] = sum over irreducible P of degree d of chi_c(P)^j,
    with chi_c(P) gathered from the value matrix and raised to the power j."""
    values = dense_values(group, chars)
    irreducibles = _irreducible_index_table(group.modulus.field.q, top)
    sums = np.zeros((len(chars), top + 1, top + 1), dtype=np.complex128)
    for d in range(1, top + 1):
        rows, unit = _unit_rows_of_monics(group, d, irreducibles[d])
        chi_p = np.where(unit[:, None], values[rows], 0)
        for j in range(1, top // d + 1):
            sums[:, d, j] = np.sum(chi_p**j, axis=0)
    return sums


# (q, modulus, rank of its unit group): rank 0, rank >= 2, prime powers,
# irreducibles and products of distinct primes, at q = 2, 3 and 5
DENSE_PARITY_MODULI = [
    (2, "T^2 + T", 0),
    (2, "T^4", 2),
    (2, "T^3 + T + 1", 1),
    (3, "T^3 + T^2", 3),
    (3, "T^3", 3),
    (3, "T^2 + 1", 1),
    (5, "T^2", 2),
    (5, "T^2 + T", 2),
    (5, "T^3 + T + 1", 1),
]


def parity_families():
    """All moduli with primitive characters at q=2, deg Q <= 3, and q=3,
    deg Q = 3; moduli of degree 2 come with x up to q^3, so primes of degree
    >= deg Q go through the reduction mod Q."""
    for q, degrees in ((2, (2, 3)), (3, (3,))):
        field = FieldSpec(q)
        for d in degrees:
            for idx in range(q**d):
                fam = primitive_family(factor_modulus(monic_from_index(field, d, idx)))
                if fam.n_primitive:
                    yield fam
    for text in ("T^2", "T^2 + 1", "T^2 + T + 2"):
        yield primitive_family(factor_modulus(parse_poly(F3, text)))


def l_polynomial(chi):
    """The L-polynomial of one non-principal character, computed alone."""
    return LPolynomial(chi, l_coefficients(chi.group, [chi.index])[0])


def l_polynomials(fam):
    """One L-polynomial per primitive character of the family, in order."""
    return [LPolynomial(chi, row) for chi, row in zip(fam.primitive_chars, fam.coeffs)]


def crude_single_bound_ratio(L, t):
    """log|L(1/2+it)| divided by log|Q|/loglog|Q|; the family-wise sup is the
    empirical constant in the crude single-value bound."""
    modulus = L.character.group.modulus
    return log_abs_l(L, t) / (modulus.log_norm / loglog_norm(modulus))


def l_by_c1(fam, value):
    idx = int(np.argmin(np.abs(fam.coeffs[:, 1] - value)))
    assert abs(fam.coeffs[idx, 1] - value) < 1e-9
    return l_polynomials(fam)[idx]


@pytest.mark.parametrize("q, text, rank", DENSE_PARITY_MODULI)
def test_character_sums_match_dense_oracles(q, text, rank):
    # every character, in reverse canonical order, so the columns must be
    # gathered by index; errors are taken relative to q^(n/2) for degree n
    group = unit_group(factor_modulus(parse_poly(FieldSpec(q), text)))
    assert group.rank == rank
    chars = all_characters(group)[::-1]
    index = np.array([c.index for c in chars], dtype=np.int64)
    dQ = group.modulus.degree
    scale = float(q) ** (np.arange(dQ + 3) / 2)
    err = np.abs(l_coefficients(group, index) - oracle_l_coefficients(group, chars))
    assert np.all(err <= 1e-12 * scale[:dQ])
    for n in (dQ, dQ + 1, dQ + 2):
        got = l_coefficient_probe(group, index, n)
        assert np.all(np.abs(got - oracle_probe(group, chars, n)) <= 1e-12 * scale[n])
    # the table's rows over n = d*j against the oracle's (d, j) cells
    top = dQ + 2
    table = PrimePowerTable.build(group, exponent_rows(group, chars), top)
    sums = oracle_prime_power_sums(group, chars, top)
    want = np.zeros((3, len(chars), top + 1), dtype=np.complex128)
    for d in range(1, top + 1):
        for j in range(1, top // d + 1):
            want[2, :, d * j] += sums[:, d, j] / j
        want[0, :, d] = sums[:, d, 1]
        if 2 * d <= top:
            want[1, :, 2 * d] = sums[:, d, 2]
    scale = float(q) ** (np.arange(top + 1) / 2)
    for got, oracle in zip((table.prime, table.square, table.lam), want):
        assert got.shape == oracle.shape
        assert np.all(np.abs(got - oracle) <= 1e-12 * scale)


def test_family_arrays_match_character_objects():
    # the family's index and exponent rows are those of the primitive
    # DirichletChar objects that all_characters builds, in the same order
    moduli = [(q, text) for q, text, _ in DENSE_PARITY_MODULI] + [
        (3, "T^4 + T^2"),
        (2, "T^3 + T^2 + T"),
    ]
    for q, text in moduli:
        fam = primitive_family(factor_modulus(parse_poly(FieldSpec(q), text)))
        prim = [c for c in all_characters(fam.group) if c.primitive]
        assert fam.index.tolist() == [c.index for c in prim]
        assert fam.exponents.tolist() == [list(c.exponents) for c in prim]
        assert fam.exponents.shape == (fam.n_primitive, fam.group.rank)
        assert fam.coeffs.shape == (fam.n_primitive, fam.modulus.degree)
        built = fam.primitive_chars
        assert [(c.index, c.exponents) for c in built] == [
            (c.index, c.exponents) for c in prim
        ]
        assert all(c.primitive and not c.principal for c in built)


class TestZeta:
    def test_values(self):
        assert abs(zeta_A(2, 2) - 2) < 1e-15
        expected = 1 / (1 - math.exp(-0.25))
        assert abs(zeta_A(3, 1 + 1 / (4 * math.log(3))) - expected) < 1e-12

    def test_pole(self):
        with pytest.raises(ZetaPoleError):
            zeta_A(3, 1)
        with pytest.raises(ZetaPoleError):
            zeta_A(2, 1.0 + 0j)


class TestLPolynomial:
    def test_c0_is_one(self, fam_t2):
        assert np.allclose(fam_t2.coeffs[:, 0], 1.0, atol=1e-12)

    def test_worked_multiset(self, fam_t2):
        got = sorted(
            np.round(fam_t2.coeffs[:, 1], 9).tolist(),
            key=lambda z: (z.real, z.imag),
        )
        expected = sorted(
            [1j * math.sqrt(3), -1j * math.sqrt(3), -1 + 0j, -1 + 0j],
            key=lambda z: (z.real, z.imag),
        )
        assert all(abs(a - b) < 1e-9 for a, b in zip(got, expected))

    def test_principal_rejected(self):
        # the principal character has no L-polynomial: its coefficient of
        # degree n >= deg Q counts the coprime monics, q^(n - deg Q) phi(Q)
        g = unit_group(factor_modulus(parse_poly(F3, "T^2")))
        principal = [c for c in all_characters(g) if c.principal][0]
        for n in (2, 3):
            probe = l_coefficient_probe(g, [principal.index], n)
            assert abs(probe[0] - 3 ** (n - 2) * 6) < 1e-9

    def test_single_matches_batch(self, fam_t2):
        for chi, row in zip(fam_t2.primitive_chars, fam_t2.coeffs):
            L = l_polynomial(chi)
            assert np.allclose(L.coeffs, row, atol=1e-12)

    def test_triangle_bound(self):
        fam = primitive_family(factor_modulus(parse_poly(F3, "T^3 + T + 2")))
        q = 3
        for row in fam.coeffs:
            for n, c in enumerate(row):
                assert abs(c) <= q**n + 1e-9


class TestEval:
    def test_at_zero(self, fam_t2):
        for L in l_polynomials(fam_t2):
            assert L.eval_u(0) == 1

    def test_worked_value(self, fam_t2):
        L = l_by_c1(fam_t2, 1j * math.sqrt(3))
        v = L.eval_u(1 / math.sqrt(3))
        assert abs(v - (1 + 1j)) < 1e-12
        assert abs(abs(L.eval_u(u_at_shift(3, 0.0))) ** 2 - 2) < 1e-12

    def test_dirichlet_partial_sum_consistency(self, fam_t2):
        s = 0.8 + 0.4j
        u = 3 ** (-s)
        for chi, L in zip(fam_t2.primitive_chars, l_polynomials(fam_t2)):
            direct = sum(
                chi(f) * complex(f.norm) ** (-s)
                for n in range(2)
                for f in enumerate_monic(F3, n)
            )
            assert abs(L.eval_u(u) - direct) < 1e-10

    def test_period_invariance(self, fam_t2):
        L = l_polynomials(fam_t2)[0]
        period = t_period(3)
        for t in (0.0, 0.37, 1.9):
            a = abs(L.eval_u(u_at_shift(3, t)))
            b = abs(L.eval_u(u_at_shift(3, t + period)))
            assert abs(a - b) <= 1e-9 * max(a, 1)

    def test_shift_point_consistency(self, fam_t2):
        # evaluating at the circle angle theta = -t log q reproduces the
        # shifted value
        L = l_polynomials(fam_t2)[1]
        for t in (0.0, 0.51, 2.3):
            a = L.eval_u(u_on_circle(3, -t * math.log(3)))
            b = L.eval_u(u_at_shift(3, t))
            assert abs(a - b) < 1e-9


class TestInverseRoots:
    def test_linear_cases(self, fam_t2):
        L = l_by_c1(fam_t2, 1j * math.sqrt(3))
        roots = L.inverse_roots()
        assert len(roots) == 1
        assert abs(roots[0] - (-1j * math.sqrt(3))) < 1e-9
        L2 = l_by_c1(fam_t2, -1 + 0j)
        assert abs(L2.inverse_roots()[0] - 1) < 1e-9

    def test_product_reconstruction(self):
        fam = primitive_family(factor_modulus(parse_poly(F3, "T^3 + 2*T + 1")))
        for L in l_polynomials(fam):
            roots = L.inverse_roots()
            poly = np.array([1.0 + 0j])
            for alpha in roots:
                poly = np.convolve(poly, np.array([1.0, -alpha]))
            assert np.allclose(poly, L.coeffs[: L.degree + 1], atol=1e-8)

    def test_rh_magnitudes(self):
        sq = math.sqrt(3)
        for idx in range(27):
            fam = primitive_family(
                factor_modulus(monic_from_index(F3, 3, idx))
            )
            for L in l_polynomials(fam):
                for alpha in L.inverse_roots():
                    mag = abs(alpha)
                    assert min(abs(mag - 1), abs(mag - sq)) < 1e-6

    def test_root_shape_by_parity(self):
        n_even = n_odd = 0
        for fam in parity_families():
            q = fam.modulus.field.q
            even = _even_mask(fam.group, fam.exponents)
            n_even += int(np.sum(even))
            n_odd += int(np.sum(~even))
            assert np.all(rh_root_deviations(fam.coeffs, even, q) < 1e-9)
            # the wrong parity misplaces the root 1 or demands one
            assert np.all(rh_root_deviations(fam.coeffs, ~even, q) > 0.4)
        assert n_even and n_odd

    def test_short_row_is_infinite(self):
        # a top coefficient at or below the trim tolerance leaves fewer than
        # deg(Q) - 1 roots; only that row fails
        fam = primitive_family(factor_modulus(parse_poly(F3, "T^3 + 2*T + 1")))
        even = _even_mask(fam.group, fam.exponents)
        for top in (COEFF_TRIM_TOL, 0.0):
            coeffs = fam.coeffs.copy()
            coeffs[1, -1] = top
            devs = rh_root_deviations(coeffs, even, 3)
            assert devs[1] == math.inf
            assert np.all(np.delete(devs, 1) < 1e-9)

    def test_degree_zero_gives_empty_multiset(self):
        # the imprimitive non-principal character mod T^2 has L = 1
        g = unit_group(factor_modulus(parse_poly(F3, "T^2")))
        chars = [
            c for c in all_characters(g) if not c.principal and not c.primitive
        ]
        assert chars
        L = l_polynomial(chars[0])
        assert L.degree == 0
        assert len(L.inverse_roots()) == 0


class TestDegreeBound:
    def test_probe_vanishes(self):
        for text in ["T^2", "T^2 + 1", "T^3 + T^2 + 2"]:
            fam = primitive_family(factor_modulus(parse_poly(F3, text)))
            if not fam.n_primitive:
                continue
            d = fam.modulus.degree
            for n in range(d, d + 3):
                vals = l_coefficient_probe(fam.group, fam.index, n)
                assert float(np.max(np.abs(vals))) < 1e-6

    def test_conjugation_symmetry(self, fam_t2):
        g = fam_t2.group
        index_of = {c.index: i for i, c in enumerate(fam_t2.primitive_chars)}
        K = exponent_rows(g, fam_t2.primitive_chars)
        conj = char_index(g, -K % np.array(g.orders))
        for i, chi in enumerate(fam_t2.primitive_chars):
            j = index_of[int(conj[i])]
            assert np.allclose(
                fam_t2.coeffs[j], np.conj(fam_t2.coeffs[i]), atol=1e-10
            )
            # |L(e^{i theta}/sqrt q, chi)| = |L(e^{-i theta}/sqrt q, conj chi)|
            theta = 0.83
            a = abs(l_polynomials(fam_t2)[i].eval_u(u_on_circle(3, theta)))
            b = abs(l_polynomials(fam_t2)[j].eval_u(u_on_circle(3, -theta)))
            assert abs(a - b) < 1e-10


class TestPrimePowerTable:
    TS = (0.0, 0.37, 1.9, 4.4)
    SPEC = ShiftSpec(a=(2.0, 1.0, 1.0, 0.5), t=(0.0, 0.3, 1.1, 2.0))

    def test_bounds_match_scalar_oracles(self):
        worst = 0.0
        for fam in parity_families():
            q, dQ = fam.modulus.field.q, fam.modulus.degree
            top = max(dQ - 1, 3)
            table = PrimePowerTable.build(fam.group, fam.exponents, top)
            for h in range(1, dQ):
                grid = table.pointwise(self.TS, h)
                for c, chi in enumerate(fam.primitive_chars):
                    for k, t in enumerate(self.TS):
                        worst = max(worst, abs(grid[c, k] - oracle_pointwise(chi, t, h)))
            a = np.asarray(self.SPEC.a)
            for h in (1, 2, 3):
                grid = table.simplified(self.TS, h)
                # Prop 3.2: the a-weighted simplified bound at the spec's
                # shifts, plus 10 log|Q|/log x
                shifted = table.simplified(self.SPEC.t, h) @ a + 10 * dQ / h
                for c, chi in enumerate(fam.primitive_chars):
                    for k, t in enumerate(self.TS):
                        expected = oracle_simplified(chi, t, q**h)
                        worst = max(worst, abs(grid[c, k] - expected))
                    expected = oracle_shifted(chi, self.SPEC, q**h)
                    worst = max(worst, abs(shifted[c] - expected))
        assert worst <= 1e-12

    def test_single_character_wrappers_match_oracles(self):
        fam = primitive_family(factor_modulus(parse_poly(F3, "T^2 + 1")))
        for chi in fam.primitive_chars:
            assert abs(
                log_l_bound_pointwise(chi, 0.9, 1) - oracle_pointwise(chi, 0.9, 1)
            ) <= 1e-12
            for x in (3, 9, 27):
                assert abs(
                    log_l_bound_simplified(chi, 0.9, x) - oracle_simplified(chi, 0.9, x)
                ) <= 1e-12
                assert abs(
                    shifted_log_bound(chi, self.SPEC, x)
                    - oracle_shifted(chi, self.SPEC, x)
                ) <= 1e-12

    def test_residue_counts_match_brute_division(self):
        for fam in parity_families():
            dQ = fam.modulus.degree
            for n in range(0, dQ + 3):
                assert np.array_equal(
                    monic_residue_counts(fam.group, n),
                    oracle_monic_residue_counts(fam.group, n),
                )

    def test_prime_residues_match_division(self):
        # the residue the table gives each irreducible of degree >= deg Q is
        # P mod Q, and P is flagged a unit iff that residue is one
        for fam in parity_families():
            field, Q = fam.modulus.field, fam.modulus.poly
            top = Q.degree + 2
            for d in range(Q.degree, top + 1):
                primes = enumerate_irreducible(field, d)
                indices = np.array([monic_index(P) for P in primes], dtype=np.int64)
                rows, unit = _unit_rows_of_monics(fam.group, d, indices)
                for P, row, is_unit in zip(primes, rows, unit):
                    expected = residue_index(P % Q, Q.degree)
                    assert is_unit == (expected in fam.group.residues)
                    if is_unit:
                        assert fam.group.residues[row] == expected

    def test_log_abs_grid_matches_horner(self, fam_t2):
        ts = (0.0, 0.51, 2.3, 7.0)
        grid = np.log(abs_l_at(fam_t2.coeffs, 3, ts))
        for c, L in enumerate(l_polynomials(fam_t2)):
            for k, t in enumerate(ts):
                assert abs(grid[c, k] - log_abs_l(L, t)) <= 1e-12

    def test_explicit_formula(self):
        for fam in parity_families():
            top = max(fam.modulus.degree - 1, 3)
            table = PrimePowerTable.build(fam.group, fam.exponents, top)
            assert float(np.max(table.explicit_formula_defect(fam.coeffs))) < 1e-12
            coeffs = fam.coeffs.copy()
            coeffs[0, -1] += 0.5
            defect = table.explicit_formula_defect(coeffs)
            assert defect[0] >= 0.5 and float(np.max(defect[1:], initial=0.0)) < 1e-12

    @pytest.mark.parametrize("k", [0, 1], ids=["prime", "square"])
    def test_explicit_formula_sees_the_rows_the_bounds_read(self, k, monkeypatch):
        # lam is built from prime and square, so a wrong cell in either, as
        # the bounds read it, fails the explicit formula for its character
        rows, delta = lfunc._prime_power_rows, (3 - 7j) * 1e-9
        for q, text, c, n in ((2, "T^5 + T^2 + 1", 3, 4), (3, "T^3 + 2*T + 1", 1, 2)):
            fam = primitive_family(factor_modulus(parse_poly(FieldSpec(q), text)))
            clean = PrimePowerTable.build(fam.group, fam.exponents, 4)

            def perturbed(group, K, top):
                out = rows(group, K, top)
                out[k, c, n] += delta
                return out

            monkeypatch.setattr(lfunc, "_prime_power_rows", perturbed)
            table = PrimePowerTable.build(fam.group, fam.exponents, 4)
            monkeypatch.undo()
            bad, good = (table.prime, table.square)[k], (clean.prime, clean.square)[k]
            assert np.count_nonzero(bad != good) == 1
            assert bad[c, n] == good[c, n] + delta
            defect = table.explicit_formula_defect(fam.coeffs)
            assert defect[c] > 1e-9
            assert float(np.max(np.delete(defect, c))) < 1e-12

    def test_build_memory_is_linear_in_top(self):
        # phi = 4095, top = 11: three rows of 12 cells per character (4.4 MB
        # peak); a cell per (d, j) pair would take 9.4 MB for the sums alone
        Q = parse_poly(F2, "T^12 + T^6 + T^4 + T + 1")
        fam = primitive_family(factor_modulus(Q))
        tracemalloc.start()
        try:
            table = PrimePowerTable.build(fam.group, fam.exponents, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fam.modulus.phi == 4095 and table.lam.shape == (4094, 12)
        assert peak <= 6 * 2**20


class TestLfunFamilyPass:
    """cli._lfun_result takes log|L| and the simplified bound once per h, at
    the t-grid followed by every spec's shifts; its eq33 and Prop 3.2
    entries equal the per-spec formulas, evaluated here by the scalar
    oracles one character, shift and cutoff at a time."""

    @pytest.mark.parametrize("name", ["smoke_q3_d2", "lfun_q2_d3"])
    def test_entries_match_per_spec_oracles(self, name):
        cfg = load_config(CONFIGS / f"{name}.json")
        specs, signature = cfg.resolved_shift_specs(), cfg.lfun_signature()
        n = cfg.t_grid_points
        ts = [i * t_period(cfg.q) / n for i in range(n)]
        checked = 0
        for modulus in cfg.modulus_list():
            fam = primitive_family(modulus)
            if not fam.n_primitive:
                continue
            res = cli._lfun_result(cfg, fam, specs, signature)
            got = {anchor: value for anchor, _, _, value in res["family"]}
            eq33 = prop32 = -math.inf
            for chi, L in zip(fam.primitive_chars, l_polynomials(fam)):
                for h in cfg.x_exponents:
                    x = cfg.q**h
                    for t in ts:
                        eq33 = max(eq33, log_abs_l(L, t) - oracle_simplified(chi, t, x))
                    for spec in specs:
                        lhs = sum(a * log_abs_l(L, t) for a, t in zip(spec.a, spec.t))
                        prop32 = max(prop32, lhs - oracle_shifted(chi, spec, x))
            assert abs(got["simplified log-L bound"] - eq33) <= 1e-12
            assert abs(got["Prop 3.2"] - prop32) <= 1e-12 * max(1.0, abs(prop32))
            checked += 1
        assert checked >= 5


class TestPointwiseBound:
    def test_worked_example(self, fam_t2):
        L = l_by_c1(fam_t2, 1j * math.sqrt(3))
        chi = L.character
        bound = log_l_bound_pointwise(chi, 0.0, 1)
        assert abs(bound - 1.0) < 1e-12  # m/h with zero-weight degree-1 terms
        lhs = log_abs_l(L, 0.0)
        assert abs(lhs - 0.5 * math.log(2)) < 1e-12
        assert lhs <= bound

    def test_inequality_small_sweep(self):
        fam = primitive_family(factor_modulus(parse_poly(F3, "T^3 + 2*T + 1")))
        ts = [i * t_period(3) / 16 for i in range(16)]
        for chi, L in zip(fam.primitive_chars, l_polynomials(fam)):
            for h in (1, 2):
                for t in ts:
                    bound = log_l_bound_pointwise(chi, t, h)
                    assert log_abs_l(L, t) <= bound + 1e-9

    def test_input_validation(self, fam_t2):
        chi = fam_t2.primitive_chars[0]
        with pytest.raises(ValueError):
            log_l_bound_pointwise(chi, 0.0, 0)
        with pytest.raises(ValueError):
            log_l_bound_pointwise(chi, 0.0, 2)  # m = 1 for d(Q) = 2
        g = fam_t2.group
        imprimitive = [
            c for c in all_characters(g) if not c.primitive and not c.principal
        ][0]
        with pytest.raises(ValueError):
            log_l_bound_pointwise(imprimitive, 0.0, 1)


class TestSimplifiedBound:
    def test_structural_zero_at_x_equals_q(self, fam_t2):
        # h = 1: every degree-1 prime carries weight zero and the square sum
        # is empty, so the value is exactly log|Q|/log x = d(Q)
        for chi in fam_t2.primitive_chars:
            v = log_l_bound_simplified(chi, 0.0, 3)
            assert abs(v - 2.0) < 1e-12

    def test_x_must_be_power_of_q(self, fam_t2):
        with pytest.raises(ValueError):
            log_l_bound_simplified(fam_t2.primitive_chars[0], 0.0, 10)

    def test_defect_bounded_small_sweep(self):
        fam = primitive_family(factor_modulus(parse_poly(F3, "T^3 + T + 2")))
        for chi, L in zip(fam.primitive_chars, l_polynomials(fam)):
            for t in (0.0, 0.7):
                for h in (1, 2, 3):
                    defect = log_abs_l(L, t) - log_l_bound_simplified(
                        chi, t, 3**h
                    )
                    assert defect < 1.0  # observed family sup is negative


class TestHWeight:
    def test_all_zero_shifts(self):
        spec = ShiftSpec(a=(1.0, 2.0), t=(0.0, 0.0))
        f = parse_poly(F3, "T + 1")
        assert abs(h_weight(f, spec) - 1.5) < 1e-15

    def test_unit_argument(self):
        spec = ShiftSpec(a=(1.0, 1.0), t=(0.3, 1.7))
        assert abs(h_weight(FqPoly.one(F3), spec) - 1.0) < 1e-15

    def test_cancellation(self):
        spec = ShiftSpec(a=(1.0, 1.0), t=(0.0, math.pi / math.log(3)))
        f = parse_poly(F3, "T + 1")
        assert abs(h_weight(f, spec)) < 1e-15

    def test_zero_rejected(self):
        spec = ShiftSpec(a=(1.0, 1.0), t=(0.0, 0.0))
        with pytest.raises(ValueError):
            h_weight(FqPoly.zero(F3), spec)


class TestShiftedLogBound:
    def test_reduces_to_doubled_single_bound(self, fam_t2):
        # with a = (1,1) and both shifts zero, h(f) = 1 identically, so the
        # prime sums are twice those of the single bound and the norm term
        # carries weight a = 12
        chi = fam_t2.primitive_chars[0]
        spec = ShiftSpec(a=(1.0, 1.0), t=(0.0, 0.0))
        for h in (1, 2):
            x = 3**h
            got = shifted_log_bound(chi, spec, x)
            single = log_l_bound_simplified(chi, 0.0, x)
            expected = 2 * (single - 2 / h) + 12.0 * 2 / h
            assert abs(got - expected) < 1e-12

    def test_defect_negative_on_family(self):
        fam = primitive_family(factor_modulus(parse_poly(F3, "T^3 + T + 2")))
        spec = ShiftSpec(a=(1.0, 0.5, 2.0, 1.0), t=(0.0, 0.4, 1.0, 2.2))
        for chi, L in zip(fam.primitive_chars, l_polynomials(fam)):
            lhs = sum(a * log_abs_l(L, t) for a, t in zip(spec.a, spec.t))
            assert lhs <= shifted_log_bound(chi, spec, 9)

    def test_crude_ratio_finite(self, fam_t2):
        for L in l_polynomials(fam_t2):
            r = crude_single_bound_ratio(L, 0.4)
            assert math.isfinite(r)
