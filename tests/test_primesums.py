"""Prime-sum values, their closed-form comparisons, and sweep stability."""

import math

import numpy as np
import pytest

from ffmoments.ffpoly import FieldSpec, prime_count_exact
from ffmoments.primesums import (
    F_sum,
    F_sum_cumulative,
    degree_cutoff,
    fsum_defect_sup,
    log_min_estimate,
    logp_sum,
    mertens_cos_sum,
    mertens_grid_sweep,
    prime_power_tail,
    recip_sum,
    tail_remainder_bound,
    zeta_log_estimate,
)


class TestCutoff:
    def test_powers_accepted(self):
        assert degree_cutoff(3, 81) == 4
        assert degree_cutoff(2, 1) == 0

    def test_exact_powers_above_float_precision(self):
        assert degree_cutoff(3, 3**34) == 34
        assert degree_cutoff(5, 5**23) == 23
        with pytest.raises(ValueError):
            degree_cutoff(3, 3**34 + 1)

    def test_non_powers_rejected(self):
        with pytest.raises(ValueError):
            degree_cutoff(3, 10)
        with pytest.raises(ValueError):
            logp_sum(2, 3)


class TestLogpSum:
    def test_first_degree_exact(self):
        assert abs(logp_sum(2, 2) - math.log(2)) < 1e-15

    def test_empty_sum(self):
        assert logp_sum(2, 1) == 0.0

    def test_defect_bounded(self):
        for q in (2, 3, 5):
            for h in range(1, 13):
                defect = abs(logp_sum(q, q**h) - h * math.log(q))
                assert defect <= 2.0


class TestRecipSum:
    def test_values(self):
        assert abs(recip_sum(2, 2) - 1.0) < 1e-15
        assert abs(recip_sum(2, 4) - 1.25) < 1e-15

    def test_residual_after_fit(self):
        # fit the constant at the largest h; the residual decays like 1/log x
        for q in (2, 3, 5):
            lnq = math.log(q)
            b_hat = recip_sum(q, q**12) - math.log(12 * lnq)
            for h in range(2, 13):
                resid = recip_sum(q, q**h) - math.log(h * lnq) - b_hat
                assert abs(resid) * (h * lnq) <= 1.0


class TestMertensCos:
    def test_alpha_zero_reduces_to_recip(self):
        for q, h in [(2, 3), (3, 5)]:
            assert mertens_cos_sum(q, q**h, 0.0) == recip_sum(q, q**h)

    def test_alternating_value(self):
        alpha = math.pi / math.log(2)
        assert abs(mertens_cos_sum(2, 4, alpha) - (-0.75)) < 1e-12

    def test_matches_F_within_constant(self):
        # the cosine sum differs from F(h, alpha log q) by a bounded amount
        # (observed sup ~0.66 over this grid)
        sup = 0.0
        for q in (2, 3, 5):
            lnq = math.log(q)
            for h in range(2, 13):
                for i in range(32):
                    alpha = i * (2 * math.pi / lnq) / 32
                    diff = abs(
                        mertens_cos_sum(q, q**h, alpha)
                        - F_sum(h, alpha * lnq)
                    )
                    sup = max(sup, diff)
        assert sup < 1.0

    def test_reversed_resummation(self):
        for q, h, alpha in [(2, 12, 0.3), (5, 8, 1.1)]:
            lnq = math.log(q)
            f = FieldSpec(q)
            terms = [
                math.cos(alpha * n * lnq) * prime_count_exact(f, n) / q**n
                for n in range(1, h + 1)
            ]
            forward = float(np.sum(np.array(terms)))
            backward = float(np.sum(np.array(terms[::-1])))
            assert abs(forward - backward) < 1e-12
            assert abs(forward - mertens_cos_sum(q, q**h, alpha)) < 1e-12


class TestFSum:
    def test_harmonic_at_zero(self):
        assert abs(F_sum(4, 0.0) - (1 + 0.5 + 1 / 3 + 0.25)) < 1e-15

    def test_alternating(self):
        assert abs(F_sum(2, math.pi) - (-0.5)) < 1e-15

    def test_telescoping_exact(self):
        for h in (2, 9, 31):
            theta = 0.77
            assert (
                abs((F_sum(h, theta) - F_sum(h - 1, theta)) - math.cos(h * theta) / h)
                < 1e-15
            )

    def test_cumulative_matches_scalar(self):
        thetas = np.array([0.0, 0.5, 2.0])
        F = F_sum_cumulative(20, thetas)
        for i, th in enumerate(thetas):
            for h in (1, 7, 20):
                assert abs(F[h - 1, i] - F_sum(h, float(th))) < 1e-13

    def test_defect_sup_bounded(self):
        assert fsum_defect_sup(1000, 64) <= 1.0 + 1e-12

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            F_sum(0, 1.0)


class TestZetaLogEstimate:
    def test_alpha_zero(self):
        expected = math.log(1 / (1 - math.exp(-0.25)))
        assert abs(zeta_log_estimate(3, 81, 0.0) - expected) < 1e-12

    def test_half_period_branch(self):
        alpha = math.pi / math.log(3)
        expected = math.log(1 / (1 + math.exp(-0.25)))
        assert abs(zeta_log_estimate(3, 81, alpha) - expected) < 1e-12


class TestGridSweep:
    def test_sups_finite_and_stable(self):
        rows, sup_zeta, sup_min, per_h = mertens_grid_sweep(3, 2, 8, 16)
        assert math.isfinite(sup_zeta) and math.isfinite(sup_min)
        rows2, sup_zeta2, sup_min2, _ = mertens_grid_sweep(3, 2, 8, 16)
        assert sup_zeta == sup_zeta2 and sup_min == sup_min2
        assert rows == rows2

    def test_row_shape(self):
        rows, _, _, _ = mertens_grid_sweep(2, 2, 3, 4)
        assert len(rows) == 2 * 4
        q, h, alpha, s, e1, e2, d1, d2 = rows[0]
        assert (q, h, alpha) == (2, 2, 0.0)
        assert abs(d1 - (s - e1)) < 1e-15 and abs(d2 - (s - e2)) < 1e-15

    def test_estimates_against_log_min(self):
        # sanity on the min-form comparison value itself
        assert log_min_estimate(2, 4, 0.0) == math.log(2 * math.log(2))


class TestPrimePowerTail:
    def test_head_term_direct(self):
        got = prime_power_tail(2, 2)
        head = 2 * (0.5 - 0.5 * math.exp(-1))
        assert got > head  # truncated tail adds a positive amount
        assert got - head < 0.1

    def test_bounded_over_sweep(self):
        for q in (2, 3, 5):
            for h in range(1, 11):
                assert prime_power_tail(q, q**h) < 1.0

    def test_remainder_bound_monotone(self):
        bounds = [tail_remainder_bound(3, 81, N) for N in range(16, 49, 4)]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_remainder_below_reported_value_scale(self):
        # observed max ratio over this grid is ~0.5% of the value
        for q in (2, 3, 5):
            for h in range(2, 11):
                v = prime_power_tail(q, q**h)
                rem = tail_remainder_bound(q, q**h, 4 * h)
                assert rem < 6e-3 * v
