"""Acceptance gate: every criterion at its pinned tolerance, one printed
pass/fail line per criterion.

Shared family data (q=3, all monic moduli of degree 2..5, with unit groups
and L-polynomial coefficients) is built once at module scope; its build time
is charged to the criterion runtime budgets where relevant.
"""

import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from ffmoments.chargroup import factor_modulus
from ffmoments.cli import main
from ffmoments.config import load_config
from ffmoments.ffpoly import (
    FieldSpec,
    enumerate_irreducible,
    irreducible_count_enumerated,
    is_irreducible,
    monic_from_index,
    parse_poly,
    prime_count_exact,
)
from ffmoments.lfunc import (
    LPolynomial,
    l_coefficient_probe,
    log_abs_l,
    log_l_bound_pointwise,
    primitive_family,
    t_period,
)
from ffmoments.moments import (
    ShiftSpec,
    charsum_moment,
    integral_moment,
    moment_report,
    perron_partial_sum,
    shifted_moment,
)
from ffmoments.primesums import mertens_grid_sweep
from ffmoments.report import load_fixtures

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def l_polynomials(fam):
    """One L-polynomial per primitive character of the family, in order."""
    return [LPolynomial(chi, row) for chi, row in zip(fam.primitive_chars, fam.coeffs)]


def report(number: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def q3_family():
    """All monic moduli of degree 2..5 over F_3 with their primitive data."""
    started = time.perf_counter()
    cfg = load_config(CONFIGS / "moments_q3.json")
    by_degree: dict[int, list] = {}
    for modulus in cfg.modulus_list():
        by_degree.setdefault(modulus.degree, []).append(
            primitive_family(modulus)
        )
    return cfg, by_degree, time.perf_counter() - started


@pytest.fixture(scope="module")
def fixtures():
    fx = load_fixtures()
    assert fx, "committed regression fixtures are missing"
    return fx


def test_criterion_1_prime_counting():
    started = time.perf_counter()
    checked = 0
    for q in (2, 3, 5):
        field = FieldSpec(q)
        n = 1
        while q ** (n + 1) <= 10**6:
            n += 1
        for deg in range(1, n + 1):
            exact = prime_count_exact(field, deg)
            enumerated = irreducible_count_enumerated(field, deg)
            assert enumerated == exact, (q, deg)
            assert abs(exact - q**deg / deg) <= 3 * q ** (deg / 2) / deg
            checked += 1
        # spot-materialize one degree per field and cross-check the list
        spot = min(6, n)
        primes = enumerate_irreducible(field, spot)
        assert len(primes) == prime_count_exact(field, spot)
        assert all(is_irreducible(p) for p in primes)
    elapsed = time.perf_counter() - started
    report(
        1,
        "prime counting",
        elapsed < 60,
        f"{checked} degree counts verified in {elapsed:.2f}s (< 60s)",
    )


def test_criterion_2_l_polynomial_structure(q3_family):
    cfg, by_degree, build_s = q3_family
    started = time.perf_counter()
    sqrt_q = math.sqrt(3)
    worst_probe = 0.0
    worst_root = 0.0
    n_chars = 0
    for degree in (2, 3, 4):
        for fam in by_degree[degree]:
            if not fam.n_primitive:
                continue
            for extra in range(degree, degree + 3):
                vals = l_coefficient_probe(fam.group, fam.index, extra)
                worst_probe = max(worst_probe, float(np.max(np.abs(vals))))
            for L in l_polynomials(fam):
                n_chars += 1
                for alpha in L.inverse_roots():
                    mag = abs(alpha)
                    worst_root = max(
                        worst_root, min(abs(mag - 1), abs(mag - sqrt_q))
                    )
    elapsed = time.perf_counter() - started + build_s
    ok = worst_probe < 1e-6 and worst_root < 1e-6 and elapsed < 120
    report(
        2,
        "L-polynomial structure",
        ok,
        f"{n_chars} primitive characters, max probe {worst_probe:.2e}, "
        f"max root deviation {worst_root:.2e}, {elapsed:.2f}s (< 120s)",
    )


def test_criterion_3_hand_fixture():
    fam = primitive_family(factor_modulus(parse_poly(FieldSpec(3), "T^2")))
    assert fam.n_primitive == 4
    got = sorted(
        fam.coeffs[:, 1].tolist(), key=lambda z: (round(z.real, 9), round(z.imag, 9))
    )
    expected = sorted(
        [1j * math.sqrt(3), -1j * math.sqrt(3), -1 + 0j, -1 + 0j],
        key=lambda z: (round(z.real, 9), round(z.imag, 9)),
    )
    multiset_ok = all(abs(a - b) < 1e-9 for a, b in zip(got, expected))

    s1 = charsum_moment(fam, 1.0, 3).moment
    s1_ok = abs(s1 - 8) < 1e-8

    [lhs] = shifted_moment(fam, [ShiftSpec(a=(1.0, 1.0), t=(0.0, 0.0))])
    lhs_ok = abs(lhs - (4 + 2 * (1 - 1 / math.sqrt(3)) ** 2)) < 1e-8

    idx = int(np.argmin(np.abs(fam.coeffs[:, 1] - 1j * math.sqrt(3))))
    integral = integral_moment(fam, [2.5], 8192)[0].integrals[idx]
    integral_ok = abs(integral - 8) < 1e-6

    ok = multiset_ok and s1_ok and lhs_ok and integral_ok
    report(
        3,
        "hand-derived fixture",
        ok,
        f"multiset {multiset_ok}, S_1={s1:.10f}, moment={lhs:.10f}, "
        f"integral={integral:.8f}",
    )


def test_criterion_4_pointwise_inequality():
    started = time.perf_counter()
    min_slack = math.inf
    n_checks = 0
    for q in (2, 3):
        field = FieldSpec(q)
        ts = [i * t_period(q) / 32 for i in range(32)]
        for idx in range(q**3):
            fam = primitive_family(
                factor_modulus(monic_from_index(field, 3, idx))
            )
            for chi, L in zip(fam.primitive_chars, l_polynomials(fam)):
                for h in (1, 2):
                    for t in ts:
                        slack = log_l_bound_pointwise(chi, t, h) - log_abs_l(
                            L, t
                        )
                        min_slack = min(min_slack, slack)
                        n_checks += 1
    elapsed = time.perf_counter() - started
    ok = min_slack >= -1e-9 and elapsed < 300
    report(
        4,
        "pointwise log-L inequality",
        ok,
        f"{n_checks} evaluations, min slack {min_slack:.3e}, "
        f"{elapsed:.2f}s (< 300s)",
    )


def test_criterion_5_perron_identity(q3_family):
    cfg, by_degree, _ = q3_family
    worst = 0.0
    n_samples = 0
    for degree, fams in sorted(by_degree.items()):
        pool = [
            (fam, i)
            for fam in fams
            for i in range(fam.n_primitive)
        ]
        rng = random.Random(500 + degree)
        for _ in range(50):
            fam, i = pool[rng.randrange(len(pool))]
            L = l_polynomials(fam)[i]
            N = rng.randrange(0, degree + 2)
            M = 64 * (N + degree)
            quad = perron_partial_sum(L.coeffs[None, :], N, 0.5, M)[0]
            direct = complex(np.sum(L.coeffs[: N + 1]))
            worst = max(worst, abs(quad - direct))
            n_samples += 1
    ok = worst < 1e-8
    report(
        5,
        "contour-integral partial sums",
        ok,
        f"{n_samples} samples, max |quadrature - direct| = {worst:.3e}",
    )


def test_criterion_6_mertens_regression(fixtures):
    psig = load_config(CONFIGS / "primesums_all.json").primesums_signature()
    pooled_zeta = -math.inf
    pooled_min = -math.inf
    slice_half = -math.inf
    slice_full = -math.inf
    for q in (2, 3, 5):
        _, sup_zeta, sup_min, per_h = mertens_grid_sweep(q, 2, 12, 64)
        pooled_zeta = max(pooled_zeta, sup_zeta)
        pooled_min = max(pooled_min, sup_min)
        slice_half = max(slice_half, per_h[6])
        slice_full = max(slice_full, per_h[12])
    finite = math.isfinite(pooled_zeta) and math.isfinite(pooled_min)
    zeta_ok = (
        abs(pooled_zeta - fixtures[f"primesums/lemma23_zeta_sup/{psig}"]) <= 1e-9
    )
    min_ok = (
        abs(pooled_min - fixtures[f"primesums/lemma23_min_sup/{psig}"]) <= 1e-9
    )
    growth_ok = slice_full <= 1.1 * slice_half
    ok = finite and zeta_ok and min_ok and growth_ok
    report(
        6,
        "Mertens-type regression",
        ok,
        f"sup defects ({pooled_zeta:.6f}, {pooled_min:.6f}) vs fixtures, "
        f"h=12 slice / h=6 slice = {slice_full / slice_half:.3f} (<= 1.1)",
    )


def test_criterion_7_shifted_moment_ratios(q3_family, fixtures):
    cfg, by_degree, build_s = q3_family
    started = time.perf_counter()
    specs = cfg.resolved_shift_specs()
    assert len(specs) == 20 and all(len(s.a) == 4 for s in specs)
    max_zeta: dict[int, float] = {}
    max_min: dict[int, float] = {}
    all_finite = True
    for degree, fams in sorted(by_degree.items()):
        for fam in fams:
            if not fam.n_primitive:
                continue
            lhs, rhs_zeta, rhs_min = moment_report(fam, specs)
            for ratio_zeta, ratio_min in zip(
                (lhs / rhs_zeta).tolist(), (lhs / rhs_min).tolist()
            ):
                fine = (
                    math.isfinite(ratio_zeta)
                    and math.isfinite(ratio_min)
                    and ratio_zeta > 0
                    and ratio_min > 0
                )
                all_finite = all_finite and fine
                max_zeta[degree] = max(max_zeta.get(degree, 0.0), ratio_zeta)
                max_min[degree] = max(max_min.get(degree, 0.0), ratio_min)

    msig = cfg.moments_signature()

    def sequence_ok(maxima: dict[int, float], key: str) -> bool:
        seq = [maxima[d] for d in sorted(maxima)]
        non_increasing = all(a >= b for a, b in zip(seq, seq[1:]))
        within = all(
            abs(maxima[d] - fixtures[f"moments/{key}/{msig}/q3_d{d}"])
            <= 0.25 * fixtures[f"moments/{key}/{msig}/q3_d{d}"]
            for d in maxima
        )
        return non_increasing or within

    elapsed = time.perf_counter() - started + build_s
    ok = (
        all_finite
        and sequence_ok(max_zeta, "thm11_zeta_max")
        and sequence_ok(max_min, "thm11_min_max")
        and elapsed < 1800
    )
    report(
        7,
        "shifted-moment ratio boundedness",
        ok,
        f"per-degree zeta maxima {[round(max_zeta[d], 4) for d in sorted(max_zeta)]}, "
        f"min-form maxima {[round(max_min[d], 4) for d in sorted(max_min)]}, "
        f"{elapsed:.1f}s (< 1800s)",
    )


def test_criterion_8_charsum_and_integral_ratios(q3_family, fixtures):
    cfg, by_degree, _ = q3_family
    failures = []
    for degree, fams in sorted(by_degree.items()):
        for m in (2.5, 3.0):
            for yexp in (2, 3):
                value = max(
                    charsum_moment(fam, m, 3**yexp).ratio
                    for fam in fams
                    if fam.n_primitive
                )
                key = f"moments/thm13_max/q3_d{degree}_m{m}_y{yexp}"
                if abs(value - fixtures[key]) > 0.25 * fixtures[key]:
                    failures.append((key, value, fixtures[key]))
            value = max(
                integral_moment(fam, [m], cfg.quad_points)[0].ratio
                for fam in fams
                if fam.n_primitive
            )
            key = f"moments/prop41_max/q3_d{degree}_m{m}_quad{cfg.quad_points}"
            if abs(value - fixtures[key]) > 0.25 * fixtures[key]:
                failures.append((key, value, fixtures[key]))
    report(
        8,
        "character-sum and integral moment ratios",
        not failures,
        f"24 family maxima within 25% of fixtures"
        if not failures
        else f"drifted: {failures}",
    )


def test_criterion_9_determinism(tmp_path):
    cfg = str(CONFIGS / "smoke_q3_d2.json")
    outs = [tmp_path / name for name in ("serial1", "serial2", "parallel")]
    assert main(["all", "--config", cfg, "--out", str(outs[0])]) == 0
    assert main(["all", "--config", cfg, "--out", str(outs[1])]) == 0
    assert (
        main(["all", "--config", cfg, "--out", str(outs[2]), "--jobs", "8"]) == 0
    )
    files = sorted(p.name for p in outs[0].glob("*.csv")) + ["moments.json"]
    mismatched = []
    for name in files:
        blobs = [(out / name).read_bytes() for out in outs]
        if not (blobs[0] == blobs[1] == blobs[2]):
            mismatched.append(name)
    report(
        9,
        "byte-identical determinism",
        not mismatched,
        f"{len(files)} report files identical across reruns and --jobs 8"
        if not mismatched
        else f"mismatched: {mismatched}",
    )
