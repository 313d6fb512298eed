"""Prime-sum values, their closed-form comparisons, and sweep stability.

The package computes each sum for every cutoff at once, as cumulative sums
over one weight vector per q; the per-point formulas below evaluate one
cutoff (and one alpha) at a time, straight from the definitions, and serve
as oracles for those arrays."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ffmoments import cli, primesums
from ffmoments.cli import cmd_primesums
from ffmoments.config import load_config
from ffmoments.ffpoly import FieldSpec, degree_cutoff, prime_count_exact
from ffmoments.lfunc import zeta_A
from ffmoments.moments import theta_bar
from ffmoments.primesums import (
    F_sum_cumulative,
    dropped_tail,
    fsum_defect_sup,
    logp_sum,
    mertens_grid_sweep,
    prime_power_tail,
    recip_sum,
    tail_remainder_bound,
)
from ffmoments.report import FixtureChecker, load_fixtures

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# ---------------------------------------------------------------------------
# per-point oracles
# ---------------------------------------------------------------------------


def counts(q: int, h: int) -> list[int]:
    f = FieldSpec(q)
    return [prime_count_exact(f, n) for n in range(1, h + 1)]


def logp_oracle(q: int, h: int) -> float:
    """sum over |P| <= q^h of log|P| / |P|: sum_{n<=h} pi(n) n log q / q^n."""
    lnq = math.log(q)
    terms = [c * n * lnq / q**n for n, c in enumerate(counts(q, h), start=1)]
    return float(np.sum(np.array(terms))) if terms else 0.0


def recip_oracle(q: int, h: int) -> float:
    """sum over |P| <= q^h of 1/|P|: sum_{n<=h} pi(n) / q^n."""
    terms = [c / q**n for n, c in enumerate(counts(q, h), start=1)]
    return float(np.sum(np.array(terms)))


def mertens_cos_sum(q: int, h: int, alpha: float) -> float:
    """sum over |P| <= q^h of cos(alpha log|P|) / |P|:
    sum_{n<=h} cos(alpha n log q) pi(n) / q^n."""
    lnq = math.log(q)
    terms = [
        math.cos(alpha * n * lnq) * c / q**n
        for n, c in enumerate(counts(q, h), start=1)
    ]
    return float(np.sum(np.array(terms)))


def zeta_log_estimate(q: int, h: int, alpha: float) -> float:
    """log |zeta_A(1 + 1/log x + i alpha)| at x = q^h, via zeta_A."""
    s = 1 + 1.0 / (h * math.log(q)) + 1j * alpha
    return math.log(abs(zeta_A(q, s)))


def log_min_estimate(q: int, h: int, alpha: float) -> float:
    """log min(log x, 1/theta_bar(alpha log q)) at x = q^h (theta_bar(0)
    resolves the min to log x)."""
    logx = h * math.log(q)
    tb = float(theta_bar(alpha * math.log(q)))
    return math.log(logx if tb == 0 else min(logx, 1.0 / tb))


def F_sum(h: int, theta: float) -> float:
    """F(h, theta) = sum_{n=1}^{h} cos(n theta) / n."""
    n = np.arange(1, h + 1, dtype=np.float64)
    return float(np.sum(np.cos(n * theta) / n))


def tail_oracle(q: int, h: int) -> float:
    """The smoothing defect at x = q^h, the tail truncated at degree 4h."""
    c = [0, *counts(q, 4 * h)]
    head = [c[n] * (q**-n - q**-n * math.exp(-n / h)) for n in range(1, h + 1)]
    tail = [c[n] * q**-n * math.exp(-n / h) for n in range(h + 1, 4 * h + 1)]
    return float(np.sum(np.array(head + tail)))


def sweep_grids(q: int, h_min: int, h_max: int, alpha_points: int) -> list:
    """The eight sweep columns as (h, alpha) grids, rows h = h_min..h_max."""
    columns, *_ = mertens_grid_sweep(q, h_min, h_max, alpha_points)
    return [c.reshape(h_max - h_min + 1, alpha_points) for c in columns]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


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
        # the sums take the cutoff degree itself, which cannot be negative
        with pytest.raises(ValueError):
            logp_sum(2, -1)


class TestLogpSum:
    def test_first_degree_exact(self):
        assert abs(logp_sum(2, 1)[1] - math.log(2)) < 1e-15

    def test_empty_sum(self):
        assert logp_sum(2, 0).tolist() == [0.0]

    def test_defect_bounded(self):
        for q in (2, 3, 5):
            sums = logp_sum(q, 12)
            for h in range(1, 13):
                defect = abs(sums[h] - h * math.log(q))
                assert defect <= 2.0


class TestRecipSum:
    def test_values(self):
        assert abs(recip_sum(2, 1)[1] - 1.0) < 1e-15
        assert abs(recip_sum(2, 2)[2] - 1.25) < 1e-15

    def test_residual_after_fit(self):
        # fit the constant at the largest h; the residual decays like 1/log x
        for q in (2, 3, 5):
            lnq = math.log(q)
            sums = recip_sum(q, 12)
            b_hat = sums[12] - math.log(12 * lnq)
            for h in range(2, 13):
                resid = sums[h] - math.log(h * lnq) - b_hat
                assert abs(resid) * (h * lnq) <= 1.0


class TestMertensCos:
    def test_alpha_zero_reduces_to_recip(self):
        for q, h in [(2, 3), (3, 5)]:
            sums = sweep_grids(q, 1, h, 8)[3]
            assert sums[h - 1, 0] == recip_sum(q, h)[h]

    def test_alternating_value(self):
        # alpha = pi / log 2 is the second of two points per period
        _, _, alphas, sums, *_ = sweep_grids(2, 1, 2, 2)
        assert alphas[1, 1] == math.pi / math.log(2)
        assert abs(sums[1, 1] - (-0.75)) < 1e-12

    def test_matches_F_within_constant(self):
        # the cosine sum differs from F(h, alpha log q) by a bounded amount
        # (observed sup ~0.66 over this grid)
        sup = 0.0
        for q in (2, 3, 5):
            lnq = math.log(q)
            _, _, alphas, sums, *_ = sweep_grids(q, 2, 12, 32)
            for i in range(32):
                alpha = i * (2 * math.pi / lnq) / 32
                assert alphas[0, i] == alpha
                for h in range(2, 13):
                    diff = abs(sums[h - 2, i] - F_sum(h, alpha * lnq))
                    sup = max(sup, diff)
        assert sup < 1.0

    def test_reversed_resummation(self):
        for q, h, i in [(2, 12, 3), (5, 8, 11)]:
            lnq = math.log(q)
            _, _, alphas, sums, *_ = sweep_grids(q, h, h, 16)
            alpha = float(alphas[0, i])
            f = FieldSpec(q)
            terms = [
                math.cos(alpha * n * lnq) * prime_count_exact(f, n) / q**n
                for n in range(1, h + 1)
            ]
            forward = float(np.sum(np.array(terms)))
            backward = float(np.sum(np.array(terms[::-1])))
            assert abs(forward - backward) < 1e-12
            assert abs(forward - sums[0, i]) < 1e-12


class TestFSum:
    def test_harmonic_at_zero(self):
        harmonic = 1 + 0.5 + 1 / 3 + 0.25
        assert abs(F_sum_cumulative(4, [0.0])[3, 0] - harmonic) < 1e-15

    def test_alternating(self):
        assert abs(F_sum_cumulative(2, [math.pi])[1, 0] - (-0.5)) < 1e-15

    def test_telescoping_exact(self):
        F = F_sum_cumulative(31, [0.77])[:, 0]
        for h in (2, 9, 31):
            theta = 0.77
            assert abs((F[h - 1] - F[h - 2]) - math.cos(h * theta) / h) < 1e-15

    def test_cumulative_matches_scalar(self):
        thetas = np.array([0.0, 0.5, 2.0])
        F = F_sum_cumulative(20, thetas)
        for i, th in enumerate(thetas):
            for h in (1, 7, 20):
                assert abs(F[h - 1, i] - F_sum(h, float(th))) < 1e-13

    def test_defect_sup_bounded(self):
        assert fsum_defect_sup(1000, 64) <= 1.0 + 1e-12

    @pytest.mark.parametrize("block", [1, 7, 512])
    def test_blocked_sup_equals_one_shot(self, block, monkeypatch):
        # the sup equals the one-shot value bit for bit; with the min form
        # zeroed it is the sup of |F| itself, read at h_max across all blocks
        thetas = 2 * math.pi * np.arange(64) / 64
        F = F_sum_cumulative(1000, thetas)
        hs = np.arange(1, 1001, dtype=np.float64)[:, None]
        log_min = primesums._log_min(hs, theta_bar(thetas))
        monkeypatch.setattr(primesums, "_FSUM_BLOCK", block)
        assert fsum_defect_sup(1000, 64) == float(np.max(np.abs(F - log_min)))
        monkeypatch.setattr(primesums, "_log_min", lambda length, tbar: 0.0)
        assert fsum_defect_sup(1000, 64) == float(np.max(np.abs(F)))

    def test_defect_sup_memory_does_not_grow_with_h(self):
        tracemalloc.start()
        try:
            fsum_defect_sup(10000, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the one-shot (10000, 64) grid is 5.1 MB; blocks of 128 cutoffs
        # peak at 0.34 MB, blocks of 512 at 1.13 MB
        assert peak <= 400_000

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            F_sum_cumulative(0, [1.0])


class TestZetaLogEstimate:
    def test_alpha_zero(self):
        estimates = sweep_grids(3, 2, 4, 2)[4]
        expected = math.log(1 / (1 - math.exp(-0.25)))
        assert abs(estimates[2, 0] - expected) < 1e-12

    def test_half_period_branch(self):
        _, _, alphas, _, estimates, *_ = sweep_grids(3, 2, 4, 2)
        assert alphas[2, 1] == math.pi / math.log(3)
        expected = math.log(1 / (1 + math.exp(-0.25)))
        assert abs(estimates[2, 1] - expected) < 1e-12


class TestGridSweep:
    def test_sups_finite_and_stable(self):
        columns, sup_zeta, sup_min, per_h = mertens_grid_sweep(3, 2, 8, 16)
        assert math.isfinite(sup_zeta) and math.isfinite(sup_min)
        columns2, sup_zeta2, sup_min2, _ = mertens_grid_sweep(3, 2, 8, 16)
        assert sup_zeta == sup_zeta2 and sup_min == sup_min2
        assert all(np.array_equal(a, b) for a, b in zip(columns, columns2))

    def test_row_shape(self):
        columns, _, _, _ = mertens_grid_sweep(2, 2, 3, 4)
        assert len(columns) == 8 and all(len(c) == 2 * 4 for c in columns)
        q, h, alpha, s, e1, e2, d1, d2 = (c[0].item() for c in columns)
        assert (q, h, alpha) == (2, 2, 0.0)
        assert type(q) is int and type(h) is int
        assert abs(d1 - (s - e1)) < 1e-15 and abs(d2 - (s - e2)) < 1e-15

    def test_estimates_against_log_min(self):
        # sanity on the min-form comparison value itself
        assert sweep_grids(2, 2, 2, 4)[5][0, 0] == math.log(2 * math.log(2))


class TestPrimePowerTail:
    def test_head_term_direct(self):
        got = prime_power_tail(2, 1)[0]
        head = 2 * (0.5 - 0.5 * math.exp(-1))
        assert got > head  # truncated tail adds a positive amount
        assert got - head < 0.1

    def test_bounded_over_sweep(self):
        for q in (2, 3, 5):
            assert np.all(prime_power_tail(q, 10) < 1.0)

    def test_remainder_bound_monotone(self):
        bounds = [tail_remainder_bound(4, N) for N in range(16, 49, 4)]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))
        assert np.array_equal(tail_remainder_bound(4, np.arange(16, 49, 4)), bounds)

    def test_dropped_part_against_oracle(self):
        # summed twice as deep, the dropped part moves by no more than rounding
        for q in (2, 3, 5):
            c = counts(q, 800)
            for h, got in enumerate(dropped_tail(q, 10), start=1):
                degrees = range(4 * h + 1, 801)
                terms = [c[n - 1] / q**n * math.exp(-n / h) for n in degrees]
                assert abs(got - math.fsum(terms)) <= 1e-15 * got

    def test_remainder_below_reported_value_scale(self):
        # observed max ratio over this grid is ~0.5% of the value
        for q in (2, 3, 5):
            values = prime_power_tail(q, 10)
            for h in range(2, 11):
                v = values[h - 1]
                rem = tail_remainder_bound(h, 4 * h)
                assert rem < 6e-3 * v


@pytest.mark.parametrize("q", [2, 3, 5])
def test_arrays_match_per_point_oracles(q):
    # every cutoff, and every (h, alpha) grid point, against the formula
    # evaluated at that point alone
    tol = 1e-14
    logp, recip = logp_sum(q, 12), recip_sum(q, 12)
    assert len(logp) == len(recip) == 13
    for h in range(13):
        assert abs(logp[h] - logp_oracle(q, h)) <= tol
        if h:
            assert abs(recip[h] - recip_oracle(q, h)) <= tol

    lnq = math.log(q)
    grids = sweep_grids(q, 1, 12, 64)
    for h in range(1, 13):
        for i in range(64):
            alpha = i * (2 * math.pi / lnq) / 64
            s = mertens_cos_sum(q, h, alpha)
            e1, e2 = zeta_log_estimate(q, h, alpha), log_min_estimate(q, h, alpha)
            got = [g[h - 1, i] for g in grids]
            assert got[:3] == [q, h, alpha]
            for value, want in zip(got[3:], [s, e1, e2, s - e1, s - e2]):
                assert abs(value - want) <= tol

    tail = prime_power_tail(q, 10)
    assert len(tail) == 10
    for h in range(1, 11):
        assert abs(tail[h - 1] - tail_oracle(q, h)) <= tol


def test_primesums_fixtures_reproduced():
    # the 1e-9 fixture rows would let a drift of the shipped sweep pass
    # unseen; every constant it records stays within 1e-12 of its fixture
    cfg = load_config(CONFIGS / "primesums_all.json")
    committed = load_fixtures(cfg.fixtures)
    measured = FixtureChecker({}, record=True)
    cmd_primesums(cfg, measured)
    assert len(measured.fixtures) == 21
    for key, value in measured.fixtures.items():
        assert key.startswith("primesums/")
        assert abs(value - committed[key]) <= 1e-12, key


def test_primes_counted_once_per_degree_and_sum(monkeypatch):
    # each sum counts the primes of each degree once, for all its cutoffs
    # together, not once per cutoff or grid point
    calls = []

    def counted(field, n):
        calls.append(n)
        return prime_count_exact(field, n)

    monkeypatch.setattr(primesums, "prime_count_exact", counted)
    cmd_primesums(load_config(CONFIGS / "primesums_all.json"), FixtureChecker({}, True))
    # per q: degrees 1..12 for each of the three sums, 1..40 for the tail,
    # 1..400 for the part of it dropped beyond degree 4h
    assert len(calls) == 3 * (3 * 12 + 40 + 400)


def tail_bound_rows(cfg):
    rows, _ = cmd_primesums(cfg, FixtureChecker({}, True))
    return [row for row in rows if row.params.startswith("dropped tail")]


def test_tail_bound_row_can_fail(monkeypatch):
    # one row per q compares the dropped tail with its remainder bound; a
    # bound taken two degrees too deep, or doubled weights, fails every row
    cfg = load_config(CONFIGS / "primesums_all.json")
    rows = tail_bound_rows(cfg)
    assert [row.subject for row in rows] == ["q=2", "q=3", "q=5"]
    assert len({row.value for row in rows}) == 3
    assert all(0.8 < row.value < 1 and row.passed for row in rows)

    bound = cli.tail_remainder_bound
    monkeypatch.setattr(cli, "tail_remainder_bound", lambda h, N: bound(h, N + 2))
    rows = tail_bound_rows(cfg)
    assert len(rows) == 3 and not any(row.passed for row in rows)
    monkeypatch.undo()

    weights = primesums._prime_weights
    monkeypatch.setattr(primesums, "_prime_weights", lambda q, n: 2 * weights(q, n))
    rows = tail_bound_rows(cfg)
    assert len(rows) == 3 and not any(row.passed for row in rows)
