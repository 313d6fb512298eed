"""Shifted moments, bound forms, character-sum moments, contour identity,
circle-integral moments."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from ffmoments import lfunc, moments
from ffmoments.chargroup import factor_modulus
from ffmoments.ffpoly import FieldSpec, monic_from_index, parse_poly
from ffmoments.lfunc import primitive_family, t_period, u_at_shift, u_on_circle, zeta_A
from ffmoments.moments import (
    CharSumMoment,
    ShiftSpec,
    char_sum,
    char_sums_from_coeffs,
    charsum_moment,
    circle_angle_moments,
    integral_moment,
    integral_moments_per_char,
    moment_report,
    perron_aliasing_bound,
    perron_partial_sum,
    prop33_statistic,
    shifted_moment,
    theorem1_rhs,
    theta_bar,
)

F3 = FieldSpec(3)


# ---------------------------------------------------------------------------
# Scalar oracles: one spec, one sample, one character at a time
# ---------------------------------------------------------------------------


def oracle_moment(family, spec, u_of):
    """sum over primitive chi of prod_j |L(u_of(t_j), chi)|^(a_j), one spec
    at a time."""
    powers = np.array(
        [u_of(t) ** np.arange(family.modulus.degree) for t in spec.t]
    ).T
    mags = np.abs(family.coeffs @ powers)
    return float(np.sum(np.prod(mags ** np.asarray(spec.a)[None, :], axis=1)))


def oracle_perron(coeffs, N, r, M):
    """The contour form of sum_{n<=N} c_n for one coefficient row, by
    np.polyval on the M-point circle."""
    u = r * np.exp(2j * np.pi * np.arange(M) / M)
    values = np.polyval(coeffs[::-1], u)
    return complex(np.mean(values / ((1 - u) * u**N)))


def oracle_circle_integrals(family, M):
    """The per-character circle integrals of |L| by the periodic trapezoid
    rule, |L| on the grid from one (chars x deg Q) @ (deg Q x M) product."""
    u = np.exp(2j * np.pi * np.arange(M) / M) / math.sqrt(family.modulus.field.q)
    powers = u[None, :] ** np.arange(family.modulus.degree)[:, None]
    return 2 * np.pi * np.mean(np.abs(family.coeffs @ powers), axis=1)


def theorem1_rhs_zeta(modulus, spec):
    """phi(Q) (log|Q|)^(sum a_j^2 / 4) * prod over pairs j < l of
    |zeta_A(1 + i(t_j - t_l) + 1/log|Q|)|^(a_j a_l / 2), one spec at a time."""
    q = modulus.field.q
    logq_norm = modulus.log_norm
    out = modulus.phi * logq_norm ** (spec.sum_a_sq / 4)
    n = len(spec.a)
    for j in range(n):
        for l in range(j + 1, n):
            s = 1 + 1.0 / logq_norm + 1j * (spec.t[j] - spec.t[l])
            out *= abs(zeta_A(q, s)) ** (spec.a[j] * spec.a[l] / 2)
    return out


def theorem1_rhs_min(modulus, spec):
    """Same shape with each zeta factor replaced by
    min(log|Q|, 1/theta_bar(log q * (t_j - t_l))), one spec at a time."""
    q = modulus.field.q
    logq_norm = modulus.log_norm
    out = modulus.phi * logq_norm ** (spec.sum_a_sq / 4)
    n = len(spec.a)
    for j in range(n):
        for l in range(j + 1, n):
            tb = theta_bar(math.log(q) * (spec.t[j] - spec.t[l]))
            factor = logq_norm if tb == 0 else min(logq_norm, 1.0 / tb)
            out *= factor ** (spec.a[j] * spec.a[l] / 2)
    return out


def oracle_spec_moments(family, specs, u_of):
    """The batched moments with the powers of u built on every call."""
    us = np.array([u_of(t) for spec in specs for t in spec.t], dtype=np.complex128)
    powers = us[None, :] ** np.arange(family.modulus.degree)[:, None]
    mags = np.abs(np.einsum("cn,ns->cs", family.coeffs, powers))
    _, a, starts = moments.spec_columns(specs)
    prods = np.multiply.reduceat(mags**a, starts, axis=1)
    return np.sum(np.ascontiguousarray(prods.T), axis=1)


def oracle_perron_rows(coeffs, N, r, M):
    """perron_partial_sum with the quadrature weights built on every call:
    w_n = mean over the M-point circle u of u^n / ((1 - u) u^N), n < deg Q."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    u = r * np.exp(2j * np.pi * np.arange(M) / M)
    powers = u ** np.arange(coeffs.shape[1])[:, None]
    return coeffs @ np.mean(powers / ((1 - u) * u**N), axis=1)


def small_families():
    """Every modulus with primitive characters at q=2, deg Q <= 4, q=3,
    deg Q = 3, and q=5, deg Q = 2: squarefree and not."""
    for q, degrees in ((2, (2, 3, 4)), (3, (3,)), (5, (2,))):
        field = FieldSpec(q)
        for d in degrees:
            for idx in range(q**d):
                fam = primitive_family(factor_modulus(monic_from_index(field, d, idx)))
                if fam.n_primitive:
                    yield fam


RANDOM_SPECS = [
    ShiftSpec(
        a=tuple(random.Random(k).uniform(0.5, 2.0) for _ in range(4)),
        t=tuple(random.Random(100 + k).uniform(-3.0, 9.0) for _ in range(4)),
    )
    for k in range(6)
] + [ShiftSpec(a=(1.0, 1.0), t=(0.0, 0.0)), ShiftSpec(a=(1.5, 0.5), t=(0.0, 0.7))]


@pytest.fixture(scope="module")
def fam_t2():
    return primitive_family(factor_modulus(parse_poly(F3, "T^2")))


@pytest.fixture(scope="module")
def fam_cubic():
    return primitive_family(factor_modulus(parse_poly(F3, "T^3 + 2*T + 1")))


class TestThetaBar:
    def test_examples(self):
        assert theta_bar(2 * math.pi) == 0.0
        assert abs(theta_bar(math.pi) - math.pi) < 1e-15
        assert abs(theta_bar(7.0) - (7 - 2 * math.pi)) < 1e-12

    def test_even_and_range(self):
        rng = random.Random(1)
        for _ in range(200):
            x = rng.uniform(-50, 50)
            v = theta_bar(x)
            assert 0 <= v <= math.pi + 1e-15
            assert abs(v - theta_bar(-x)) < 1e-12


class TestShiftSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShiftSpec(a=(1.0,), t=(0.0,))  # odd length
        with pytest.raises(ValueError):
            ShiftSpec(a=(1.0, -1.0), t=(0.0, 0.0))  # nonpositive exponent
        with pytest.raises(ValueError):
            ShiftSpec(a=(1.0, 1.0), t=(0.0,))  # mismatched lengths

    def test_round_trip_and_digest(self):
        spec = ShiftSpec(a=(1.0, 2.0), t=(0.0, 0.5))
        assert ShiftSpec.from_dict(spec.to_dict()) == spec
        assert spec.digest == ShiftSpec.from_dict(spec.to_dict()).digest
        with pytest.raises(ValueError):
            ShiftSpec.from_dict({"a": [1, 1], "t": [0, 0], "x": 1})


class TestShiftedMoment:
    def test_worked_value(self, fam_t2):
        [lhs] = shifted_moment(fam_t2, [ShiftSpec(a=(1.0, 1.0), t=(0.0, 0.0))])
        expected = 4 + 2 * (1 - 1 / math.sqrt(3)) ** 2
        assert abs(lhs - expected) < 1e-10

    def test_even_power_reduction(self, fam_t2):
        # paired equal shifts with exponents (2, 2) give the 4th power moment
        spec = ShiftSpec(a=(2.0, 2.0), t=(0.3, 0.3))
        spec4 = ShiftSpec(a=(1.0, 3.0), t=(0.3, 0.3))
        direct, reduced = shifted_moment(fam_t2, [spec, spec4])
        assert abs(direct - reduced) < 1e-10

    def test_period_invariance(self, fam_cubic):
        period = t_period(3)
        base = ShiftSpec(a=(1.2, 0.8), t=(0.1, 0.9))
        shifted = ShiftSpec(a=(1.2, 0.8), t=(0.1 + period, 0.9 + period))
        a, b = shifted_moment(fam_cubic, [base, shifted])
        assert abs(a - b) / a < 1e-9

    def test_conjugate_pairing(self, fam_cubic):
        base = ShiftSpec(a=(1.2, 0.8), t=(0.1, 0.9))
        negated = ShiftSpec(a=(1.2, 0.8), t=(-0.1, -0.9))
        a, b = shifted_moment(fam_cubic, [base, negated])
        assert abs(a - b) / a < 1e-9

    def test_degenerate_family_rejected(self):
        fam = primitive_family(
            factor_modulus(parse_poly(FieldSpec(2), "T^2 + T"))
        )
        with pytest.raises(ValueError):
            shifted_moment(fam, [ShiftSpec(a=(1.0, 1.0), t=(0.0, 0.0))])

    def test_holder_sanity(self, fam_cubic):
        rng = random.Random(77)
        for _ in range(10):
            a = tuple(rng.uniform(0.5, 2.0) for _ in range(4))
            t = tuple(rng.uniform(0, t_period(3)) for _ in range(4))
            spec = ShiftSpec(a=a, t=t)
            A = sum(a)
            pure_specs = [ShiftSpec(a=(A / 2, A / 2), t=(tj, tj)) for tj in t]
            lhs, *pure = shifted_moment(fam_cubic, [spec] + pure_specs)
            bound = 1.0
            for aj, pure_j in zip(a, pure):
                bound *= pure_j ** (aj / A)
            assert lhs <= bound * (1 + 1e-9)


def rhs_zeta(modulus, spec):
    return theorem1_rhs(modulus, [spec])[0][0]


def rhs_min(modulus, spec):
    return theorem1_rhs(modulus, [spec])[1][0]


class TestBoundForms:
    def test_zeta_form_equal_shifts(self, fam_t2):
        m = fam_t2.modulus
        spec = ShiftSpec(a=(1.0, 1.0), t=(0.0, 0.0))
        zeta0 = abs(zeta_A(3, 1 + 1 / m.log_norm))
        expected = 6 * m.log_norm**0.5 * zeta0**0.5
        assert abs(rhs_zeta(m, spec) - expected) < 1e-12
        assert zeta0 > 1
        assert abs(zeta0 - 1 / (1 - math.exp(-0.5))) < 1e-12

    def test_pair_count(self, fam_t2):
        # 2k = 4 gives k(2k-1) = 6 zeta factors
        m = fam_t2.modulus
        spec = ShiftSpec(a=(1.0,) * 4, t=(0.0,) * 4)
        zeta0 = abs(zeta_A(3, 1 + 1 / m.log_norm))
        expected = 6 * m.log_norm * zeta0**3  # (log|Q|)^{4/4} * zeta0^{6/2}
        assert abs(rhs_zeta(m, spec) - expected) < 1e-10

    def test_min_form_equal_shifts(self, fam_t2):
        m = fam_t2.modulus
        spec = ShiftSpec(a=(1.0, 1.0), t=(0.0, 0.0))
        expected = 6 * m.log_norm**0.5 * m.log_norm**0.5
        assert abs(rhs_min(m, spec) - expected) < 1e-12

    def test_min_form_half_period(self, fam_t2):
        m = fam_t2.modulus
        spec = ShiftSpec(a=(1.0, 1.0), t=(0.0, math.pi / math.log(3)))
        expected = 6 * m.log_norm**0.5 * min(m.log_norm, 1 / math.pi) ** 0.5
        assert abs(rhs_min(m, spec) - expected) < 1e-12

    def test_rhs_periodicity(self, fam_cubic):
        m = fam_cubic.modulus
        period = t_period(3)
        base = ShiftSpec(a=(1.1, 0.9), t=(0.2, 1.4))
        moved = ShiftSpec(a=(1.1, 0.9), t=(0.2 + period, 1.4))
        assert abs(rhs_min(m, base) - rhs_min(m, moved)) <= 1e-9 * rhs_min(m, base)
        assert abs(rhs_zeta(m, base) - rhs_zeta(m, moved)) <= 1e-9 * rhs_zeta(m, base)

    def test_forms_agree_within_bounded_factor(self, fam_cubic):
        rng = random.Random(9)
        m = fam_cubic.modulus
        for _ in range(50):
            t = tuple(rng.uniform(0, t_period(3)) for _ in range(4))
            spec = ShiftSpec(a=(1.0,) * 4, t=t)
            rz = rhs_zeta(m, spec)
            rm = rhs_min(m, spec)
            ratio = rz / rm
            assert 0.05 < ratio < 20

    def test_report_fields(self, fam_t2):
        columns = moment_report(fam_t2, [ShiftSpec(a=(1.0, 1.0), t=(0.0, 0.0))])
        assert all(c.dtype == np.float64 and c.shape == (1,) for c in columns)
        lhs, rhs_zeta, rhs_min = columns
        assert fam_t2.n_primitive == 4 and fam_t2.modulus.phi == 6
        ratios = np.concatenate([lhs / rhs_zeta, lhs / rhs_min])
        assert np.all(ratios > 0) and np.all(np.isfinite(ratios))
        assert math.isfinite(prop33_statistic(fam_t2, float(lhs[0])))


class TestBatchedMoments:
    def test_reports_match_per_spec_oracle(self):
        n_fams = 0
        for fam in small_families():
            q, m = fam.modulus.field.q, fam.modulus
            columns = moment_report(fam, RANDOM_SPECS)
            assert all(len(c) == len(RANDOM_SPECS) for c in columns)
            for lhs, rhs_zeta, rhs_min, spec in zip(*columns, RANDOM_SPECS):
                want = oracle_moment(fam, spec, lambda t: u_at_shift(q, t))
                assert abs(lhs - want) <= 1e-12 * want
                assert rhs_zeta == theorem1_rhs_zeta(m, spec)
                assert rhs_min == theorem1_rhs_min(m, spec)
            n_fams += 1
        assert n_fams > 20

    def test_circle_angles_match_oracle(self):
        for fam in small_families():
            q = fam.modulus.field.q
            lnq = math.log(q)
            got = circle_angle_moments(fam, RANDOM_SPECS)
            for value, spec in zip(got, RANDOM_SPECS):
                want = oracle_moment(fam, spec, lambda t: u_on_circle(q, -t * lnq))
                assert abs(value - want) <= 1e-12 * want

    def test_report_without_primitive_characters(self):
        fam = primitive_family(factor_modulus(parse_poly(FieldSpec(2), "T^2 + T")))
        lhs, rhs_zeta, rhs_min = moment_report(fam, RANDOM_SPECS[:2])
        assert fam.n_primitive == 0 and lhs.tolist() == [0.0, 0.0]
        assert len(rhs_zeta) == len(rhs_min) == 2


def bitwise(got, want) -> bool:
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestMemo:
    """The per-degree constants are memoised per (q, degree, specs) and per
    (N, r, M); families of two characteristics at one degree and of several
    degrees, interleaved in one process, must read the right entries.  The
    powers of u at the shifts live in lfunc, and lfun's |L| reads them
    between the moments' reads."""

    MODULI = [
        (2, "T^3 + T + 1"),
        (3, "T^3 + 2*T + 1"),
        (2, "T^4 + T + 1"),
        (3, "T^2 + 1"),
        (2, "T^3 + T^2 + 1"),
        (3, "T^3 + T^2 + 2"),
        (2, "T^2 + T + 1"),
    ]

    def test_interleaved_families_match_parent_formulas(self):
        for helper in (lfunc._shift_powers, moments._theorem1_factors):
            helper.cache_clear()
        moments._perron_weights.cache_clear()
        fams = [
            primitive_family(factor_modulus(parse_poly(FieldSpec(q), text)))
            for q, text in self.MODULI
        ]
        for _ in range(2):  # the second round reads every entry back
            for fam in fams:
                q, m, dQ = fam.modulus.field.q, fam.modulus, fam.modulus.degree
                lnq = math.log(q)
                lhs, rhs_zeta, rhs_min = moment_report(fam, RANDOM_SPECS)
                at_shift = oracle_spec_moments(
                    fam, RANDOM_SPECS, lambda t: u_at_shift(q, t)
                )
                assert bitwise(lhs, at_shift)
                want = [
                    (theorem1_rhs_zeta(m, spec), theorem1_rhs_min(m, spec))
                    for spec in RANDOM_SPECS
                ]
                assert bitwise(np.stack([rhs_zeta, rhs_min], axis=1), want)
                on_circle = oracle_spec_moments(
                    fam, RANDOM_SPECS, lambda t: u_on_circle(q, -t * lnq)
                )
                assert bitwise(circle_angle_moments(fam, RANDOM_SPECS), on_circle)
                ts = [0.0, 0.4, 2.1, 7.5]  # the last beyond the period at q=3
                us = np.array([u_at_shift(q, t) for t in ts])
                powers = us[None, :] ** np.arange(dQ)[:, None]
                want = np.abs(np.einsum("cn,ns->cs", fam.coeffs, powers))
                assert bitwise(lfunc.abs_l_at(fam.coeffs, q, ts), want)
                for N in range(dQ + 2):
                    for r in (0.5, 0.3):
                        M = 64 * (N + dQ)
                        got = perron_partial_sum(fam.coeffs, N, r, M)
                        assert bitwise(got, oracle_perron_rows(fam.coeffs, N, r, M))

    def test_memo_arrays_are_read_only(self):
        fam = primitive_family(factor_modulus(parse_poly(F3, "T^3 + 2*T + 1")))
        moment_report(fam, RANDOM_SPECS)
        arrays = [
            lfunc._shift_powers(3, 3, (0.0, 0.7), False),
            lfunc._shift_powers(3, 3, (0.0, 0.7), True),
            *moments._theorem1_factors(3, 3, tuple(RANDOM_SPECS)),
            moments._perron_weights(2, 3, 0.5, 320),
        ]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 7

    def test_factor_padding_is_exact(self):
        # specs of 2 and 4 shifts share one factor matrix; the short ones
        # are padded with 1.0, which leaves their products unchanged
        base, zeta, mins = moments._theorem1_factors(3, 3, tuple(RANDOM_SPECS))
        assert zeta.shape == mins.shape == (len(RANDOM_SPECS), 6)
        assert np.all(zeta[-2:, 1:] == 1.0) and np.all(mins[-2:, 1:] == 1.0)
        assert base.shape == (len(RANDOM_SPECS),)


class TestCharSum:
    def test_at_y_one(self, fam_t2):
        for chi in fam_t2.primitive_chars:
            assert char_sum(chi, 1) == 1

    def test_worked_values(self, fam_t2):
        sums = char_sums_from_coeffs(fam_t2, 3)
        expected = {1j * math.sqrt(3): 1 + 1j * math.sqrt(3), -1 + 0j: 0j}
        for i, chi in enumerate(fam_t2.primitive_chars):
            c1 = fam_t2.coeffs[i, 1]
            for key, val in expected.items():
                if abs(c1 - key) < 1e-9:
                    assert abs(sums[i] - val) < 1e-9

    def test_direct_matches_coefficient_sums(self, fam_cubic):
        for Y in (1, 3, 9, 27, 81):
            fast = char_sums_from_coeffs(fam_cubic, Y)
            for i, chi in enumerate(fam_cubic.primitive_chars):
                assert abs(fast[i] - char_sum(chi, Y)) < 1e-10

    def test_invalid_y(self, fam_t2):
        with pytest.raises(ValueError):
            char_sum(fam_t2.primitive_chars[0], 10)


class TestCharSumMoment:
    def test_s1_worked(self, fam_t2):
        res = charsum_moment(fam_t2, 1.0, 3)
        assert isinstance(res, CharSumMoment)
        assert abs(res.moment - 8) < 1e-8

    def test_s0_counts_primitive(self, fam_t2):
        assert charsum_moment(fam_t2, 0.0, 3).moment == fam_t2.n_primitive

    def test_ratio_positive_finite(self, fam_cubic):
        for m in (2.5, 3.0):
            res = charsum_moment(fam_cubic, m, 9)
            assert res.ratio > 0 and math.isfinite(res.ratio)


class TestPerron:
    def test_partial_sums(self, fam_t2):
        chi = fam_t2.primitive_chars[0]
        assert abs(perron_partial_sum(fam_t2.coeffs[:1], 0, 0.5, 64)[0] - 1) < 1e-8
        for N in range(0, 4):
            direct = np.sum(fam_t2.coeffs[:, : N + 1], axis=1)
            quad = perron_partial_sum(fam_t2.coeffs, N, 0.5, 64 * (N + 2))
            assert quad.shape == (fam_t2.n_primitive,)
            assert np.max(np.abs(quad - direct)) < 1e-8
            assert abs(char_sum(chi, 3**N) - direct[0]) < 1e-10

    def test_validation(self, fam_t2):
        with pytest.raises(ValueError):
            perron_partial_sum(fam_t2.coeffs, 0, 1.0, 64)
        with pytest.raises(ValueError):
            perron_partial_sum(fam_t2.coeffs, 0, 0.5, 8)
        # M >= 4 (deg Q + N + 2) is the least count accepted
        perron_partial_sum(fam_t2.coeffs, 1, 0.5, 20)
        with pytest.raises(ValueError):
            perron_partial_sum(fam_t2.coeffs, 1, 0.5, 19)

    def test_aliasing_bound_dominates_error(self, fam_cubic):
        coeffs = fam_cubic.coeffs[:4]
        for N in (0, 2, 4):
            M = 64 * (N + 3)
            quad = perron_partial_sum(coeffs, N, 0.5, M)
            err = np.abs(quad - np.sum(coeffs[:, : N + 1], axis=1))
            bound = perron_aliasing_bound(coeffs, 0.5, M)
            assert bound.shape == (4,)
            assert np.all(err <= bound + 1e-12)

    def test_rows_match_polyval_oracle(self):
        for fam in small_families():
            dQ = fam.modulus.degree
            for N in range(dQ + 2):
                M = 64 * (N + dQ)
                got = perron_partial_sum(fam.coeffs, N, 0.5, M)
                majorant = perron_aliasing_bound(fam.coeffs, 0.5, M)
                for row, value, bound in zip(fam.coeffs, got, majorant):
                    assert abs(value - oracle_perron(row, N, 0.5, M)) <= 1e-12
                    assert bound == 0.5**M / 0.5 * float(np.sum(np.abs(row)))


class TestIntegralMoment:
    def test_worked_integral(self, fam_t2):
        [res] = integral_moment(fam_t2, [2.5], 8192)
        idx = int(np.argmin(np.abs(fam_t2.coeffs[:, 1] - 1j * math.sqrt(3))))
        assert abs(res.integrals[idx] - 8) < 1e-6

    def test_quadrature_refinement(self, fam_t2):
        # second-order convergence: the change under doubling shrinks ~4x
        idx = int(np.argmin(np.abs(fam_t2.coeffs[:, 1] - 1j * math.sqrt(3))))
        deltas = []
        for M in (1024, 2048, 4096):
            a = integral_moment(fam_t2, [2.5], M)[0].integrals[idx]
            b = integral_moment(fam_t2, [2.5], 2 * M)[0].integrals[idx]
            deltas.append(abs(b - a))
        assert deltas[0] < 1e-5
        assert deltas[2] < deltas[1] < deltas[0]

    def test_integrals_match_dense_oracle(self):
        for fam in small_families():
            for M in (256, 1024):
                want = oracle_circle_integrals(fam, M)
                got = integral_moments_per_char(fam, M)
                assert np.all(np.abs(got - want) <= 1e-12 * want)

    def test_row_blocks_change_no_bit(self, monkeypatch):
        # 63 conjugate-pair rows: in one FFT, and in blocks of 5 with a
        # shorter last block
        fam = primitive_family(factor_modulus(parse_poly(FieldSpec(2), "T^7 + T + 1")))
        whole = integral_moments_per_char(fam, 512)
        monkeypatch.setattr(moments, "CIRCLE_ROWS", 5)
        assert bitwise(integral_moments_per_char(fam, 512), whole)

    def test_circle_blocks_bound_memory(self):
        # 2047 conjugate-pair rows at 1024 points: the whole transform and
        # its magnitudes would take 50 MB, one block of CIRCLE_ROWS 0.75 MB
        Q = parse_poly(FieldSpec(2), "T^12 + T^6 + T^4 + T + 1")
        fam = primitive_family(factor_modulus(Q))
        tracemalloc.start()
        try:
            integrals = integral_moments_per_char(fam, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(integrals) == fam.n_primitive == 4094
        assert peak <= 3 * 2**20

    def test_floor_enforced(self, fam_t2):
        with pytest.raises(ValueError):
            integral_moment(fam_t2, [2.5], 128)

    def test_ratio_fields(self, fam_cubic):
        for m, res in zip((2.5, 3.0), integral_moment(fam_cubic, [2.5, 3.0])):
            assert res.ratio > 0 and math.isfinite(res.ratio)
            assert res.bound == fam_cubic.modulus.phi * (
                fam_cubic.modulus.log_norm ** ((m - 1) ** 2)
            )
            assert res.moment == float(np.sum(res.integrals ** (2 * m)))
