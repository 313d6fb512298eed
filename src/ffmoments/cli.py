"""Command-line front end for the verification sweeps.

Subcommands: enumerate | lfun | moments | primesums | all.  Each consumes a
versioned JSON config, runs its checks over the configured modulus family,
and writes deterministic CSV/JSON reports plus a separate metadata file for
timing and run counts.  Exit codes: 0 all checks passed, 1 at least
one mathematical check failed, 2 configuration error, 3 internal error (an
uncaught exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import random
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from ffmoments._backend import scale_mod_many
from ffmoments.chargroup import (
    _even_mask,
    _exponent_grid,
    character_values,
    primitive_count_inclusion_exclusion,
)
from ffmoments.config import ConfigError, ExperimentConfig, load_config
from ffmoments.ffpoly import (
    FieldSpec,
    FqPoly,
    _prime_factors_int,
    irreducible_count_enumerated,
    poly_divmod,
    pow_mod,
    prime_count_exact,
)
from ffmoments.lfunc import (
    PrimePowerTable,
    l_coefficient_probe,
    log_abs_l_grid,
    loglog_norm,
    primitive_family,
    rh_root_deviations,
    t_period,
)
from ffmoments.moments import (
    charsum_moment,
    circle_angle_moments,
    integral_moment,
    moment_report,
    perron_partial_sum,
    prop33_statistic,
)
from ffmoments.primesums import (
    fsum_defect_sup,
    logp_sum,
    mertens_grid_sweep,
    prime_power_tail,
    recip_sum,
    tail_remainder_bound,
)
from ffmoments.report import (
    MOMENT_COLUMNS,
    PRIMESUM_COLUMNS,
    CheckRow,
    FixtureChecker,
    below,
    load_fixtures,
    save_fixtures,
    write_check_csv,
    write_json_rows,
    write_table_csv,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

# commands whose checks run per modulus, on the modulus's family
FAMILY_COMMANDS = ("enumerate", "lfun", "moments")


def _modulus_task(payload) -> dict:
    """Build one modulus's family once and run on it the per-modulus work of
    each requested command; one result dict per command."""
    cfg, specs, modulus, commands, selftest = payload
    fam = primitive_family(modulus)
    out = {}
    if "enumerate" in commands:
        out["enumerate"] = _enumerate_result(fam)
    if "lfun" in commands:
        out["lfun"] = _lfun_result(cfg, fam, specs, selftest)
    if "moments" in commands:
        out["moments"] = _moments_result(cfg, fam, specs)
    return out


def _family_results(cfg: ExperimentConfig, args, commands) -> list[dict]:
    """Per modulus of the config, in order, the results of _modulus_task;
    the selftest perturbation goes to the first modulus only."""
    specs = cfg.resolved_shift_specs()
    selftest = bool(getattr(args, "selftest_perturb", False))
    payloads = [
        (cfg, specs, m, commands, selftest and i == 0)
        for i, m in enumerate(cfg.modulus_list())
    ]
    if args.jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(payloads))) as pool:
            return list(pool.map(_modulus_task, payloads, chunksize=1))
    return [_modulus_task(p) for p in payloads]


def _t_grid(q: int, points: int) -> list[float]:
    period = t_period(q)
    return [i * period / points for i in range(points)]


def _family_max(results: list[dict], name: str) -> dict[int, dict]:
    """Per modulus degree, the maximum over the moduli of each entry of the
    per-modulus dict ``res[name]``."""
    out: dict[int, dict] = {}
    for res in results:
        agg = out.setdefault(res["degree"], {})
        for key, value in res[name].items():
            agg[key] = max(agg.get(key, -math.inf), value)
    return out


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def _ring_spotcheck(q: int, seed: int = 2024, trials: int = 50) -> int:
    """Number of ring-axiom failures over seeded random triples (want 0)."""
    field = FieldSpec(q)
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        polys = []
        for _ in range(3):
            deg = rng.randrange(0, 6)
            polys.append(FqPoly(field, [rng.randrange(q) for _ in range(deg + 1)]))
        a, b, c = polys
        if (a * b) * c != a * (b * c):
            failures += 1
        if a * (b + c) != a * b + a * c:
            failures += 1
        if not b.is_zero:
            quot, rem = poly_divmod(a, b)
            if b * quot + rem != a or (
                not rem.is_zero and rem.degree >= b.degree
            ):
                failures += 1
    return failures


def _enumerate_result(fam) -> dict:
    modulus, group = fam.modulus, fam.group
    product = FqPoly.one(modulus.field)
    for P, e in modulus.factors:
        for _ in range(e):
            product = product * P
    factorization_ok = product == modulus.poly and modulus.phi == len(
        group.residues
    )

    # all phi(Q) characters in canonical order; the principal one is index 0
    V = character_values(group, _exponent_grid(np.arange(group.order), group.orders))
    col_sums = np.abs(np.sum(V, axis=0))
    ortho_max = float(np.max(col_sums[1:])) if group.order > 1 else 0.0

    # seeded random (unit, unit, character) triples; chi(a b) is read from
    # the value matrix at the row of the product residue.  The columns go
    # through Python complex arithmetic, whose rounding the report records.
    rng = random.Random(1000 + modulus.norm)
    n = len(group.residues)
    i, j, c = np.array(
        [
            (rng.randrange(n), rng.randrange(n), rng.randrange(group.order))
            for _ in range(min(200, 4 * n))
        ]
    ).T
    units = group.residues
    product_rows, _ = group.rows_of(
        scale_mod_many(modulus.field.q, modulus.poly.coeffs, units[i], units[j])
    )
    columns = (V[product_rows, c].tolist(), V[i, c].tolist(), V[j, c].tolist())
    mult_err = max(abs(ab - a * b) for ab, a, b in zip(*columns))

    return {
        "modulus": str(modulus),
        "factors": " * ".join(
            f"({P})^{e}" if e > 1 else f"({P})" for P, e in modulus.factors
        ),
        "phi": modulus.phi,
        "orders": ",".join(str(m) for m in group.orders),
        "factorization_ok": bool(factorization_ok),
        "unit_group_ok": _unit_group_ok(group),
        "n_primitive": fam.n_primitive,
        "sieve_count": primitive_count_inclusion_exclusion(modulus),
        "ortho_max": ortho_max,
        "mult_err": mult_err,
    }


def _unit_group_ok(group) -> bool:
    """The orders multiply to phi(Q) and each generator has exactly its
    stated order m: g^m = 1 and g^(m/l) != 1 for every prime l | m."""
    Q = group.modulus.poly
    one = FqPoly.one(Q.field)
    if math.prod(group.orders) != group.modulus.phi:
        return False
    return all(
        pow_mod(g, m, Q) == one
        and all(pow_mod(g, m // ell, Q) != one for ell in _prime_factors_int(m))
        for g, m in zip(group.generators, group.orders)
    )


def cmd_enumerate(cfg: ExperimentConfig, fixtures: FixtureChecker, results):
    rows: list[CheckRow] = []
    field = FieldSpec(cfg.q)
    subject = f"q={cfg.q}"

    n = 1
    while cfg.q ** (n + 1) <= cfg.budget["max_enum"] and n < 40:
        n += 1
    for deg in range(1, n + 1):
        exact = prime_count_exact(field, deg)
        enumerated = irreducible_count_enumerated(field, deg)
        drift = abs(exact - cfg.q**deg / deg)
        passed = enumerated == exact and drift <= 3 * cfg.q ** (deg / 2) / deg
        rows.append(
            CheckRow("Lemma 2.2", subject, f"n={deg}", enumerated, exact, passed)
        )

    failures = _ring_spotcheck(cfg.q)
    params = "random triples, seed 2024"
    rows.append(
        CheckRow("plumbing/ring", subject, params, failures, 0, failures == 0)
    )

    tol = cfg.tolerance("orthogonality")
    for res in results:
        subject = res["modulus"]
        for anchor, params, ok in [
            ("plumbing/factorization", res["factors"], res["factorization_ok"]),
            ("plumbing/unit-group", f"orders={res['orders']}", res["unit_group_ok"]),
        ]:
            rows.append(CheckRow(anchor, subject, params, res["phi"], "", ok))
        params = "max |sum chi| over non-principal"
        rows.append(
            below("plumbing/orthogonality", subject, params, res["ortho_max"], tol)
        )
        params = "seeded random unit pairs"
        rows.append(
            below("plumbing/multiplicativity", subject, params, res["mult_err"], 1e-12)
        )
        n, sieve = res["n_primitive"], res["sieve_count"]
        params = "conductor-divisor sieve"
        rows.append(
            CheckRow("plumbing/primitive-count", subject, params, n, sieve, n == sieve)
        )
    return rows, {"moduli": len(results)}


# ---------------------------------------------------------------------------
# lfun
# ---------------------------------------------------------------------------


def _lfun_result(cfg: ExperimentConfig, fam, specs, selftest: bool) -> dict:
    modulus = fam.modulus
    out: dict = {
        "modulus": str(modulus),
        "degree": modulus.degree,
        "n_primitive": fam.n_primitive,
        "selftest": bool(selftest),
    }
    coeffs = fam.coeffs.copy()
    if selftest and fam.n_primitive:
        coeffs[0, -1] += 0.5  # deliberate corruption for harness sanity

    # degree bound: probe coefficients just past the polynomial degree
    probe_max = 0.0
    if fam.n_primitive:
        for extra in range(modulus.degree, modulus.degree + 3):
            vals = l_coefficient_probe(fam.group, fam.index, extra)
            probe_max = max(probe_max, float(np.max(np.abs(vals))))
    out["probe_max"] = probe_max

    # RH root shape per primitive character, fixed by its parity
    devs = rh_root_deviations(coeffs, _even_mask(fam.group, fam.exponents), cfg.q)
    out["root_rows"] = list(zip(fam.index.tolist(), devs.tolist()))

    # conjugation symmetry of the coefficient rows; a conjugate missing from
    # the family fails the row with inf
    conj_rows, found = fam.conjugate_rows()
    out["conj_max"] = (
        float(np.max(np.abs(coeffs[conj_rows] - np.conj(coeffs)), initial=0.0))
        if found.all()
        else math.inf
    )

    top = max(modulus.degree - 1, *cfg.x_exponents)
    out["explicit_top"] = top
    out["explicit_max"] = 0.0
    out["prop31_min_slack"] = {h: math.inf for h in range(1, modulus.degree)}
    family = out["family"] = dict.fromkeys(("eq33", "eq34", "prop32"), -math.inf)
    if not fam.n_primitive:
        return out

    table = PrimePowerTable.build(fam.group, fam.exponents, top)
    out["explicit_max"] = float(np.max(table.explicit_formula_defect(coeffs)))

    ts = _t_grid(cfg.q, cfg.t_grid_points)
    log_abs = log_abs_l_grid(coeffs, cfg.q, ts)
    # pointwise bound: minimum slack over characters, smoothing lengths, grid
    for h in out["prop31_min_slack"]:
        out["prop31_min_slack"][h] = float(np.min(table.pointwise(ts, h) - log_abs))

    family["eq33"] = max(
        float(np.max(log_abs - table.simplified(ts, h))) for h in cfg.x_exponents
    )
    ratios = log_abs / (modulus.log_norm / loglog_norm(modulus))
    family["eq34"] = float(np.max(ratios))

    for spec in specs:
        lhs = log_abs_l_grid(coeffs, cfg.q, spec.t) @ np.asarray(spec.a)
        for h in cfg.x_exponents:
            defect = float(np.max(lhs - table.shifted(spec, h)))
            family["prop32"] = max(family["prop32"], defect)
    return out


def cmd_lfun(cfg: ExperimentConfig, fixtures: FixtureChecker, results):
    rows: list[CheckRow] = []
    coeff_tol = cfg.tolerance("coeff_zero")
    root_tol = cfg.tolerance("root_mag")
    identity_tol = cfg.tolerance("identity")
    slack_tol = cfg.tolerance("slack")
    for res in results:
        subject = res["modulus"]
        if res["selftest"]:
            params = "coefficient perturbed by 0.5"
            rows.append(
                CheckRow("plumbing/selftest", subject, params, "injected", "", True)
            )
        probes = f"probe degrees {res['degree']}..{res['degree'] + 2}"
        rows.append(below("degree bound", subject, probes, res["probe_max"], coeff_tol))
        for chi_index, dev in res["root_rows"]:
            rows.append(below("RH roots", subject, f"chi#{chi_index}", dev, root_tol))
        params = "coeffs(conj chi) vs conj(coeffs)"
        rows.append(below("conjugation", subject, params, res["conj_max"], 1e-10))
        params = f"n=1..{res['explicit_top']}, prime powers vs Newton power sums"
        value = res["explicit_max"]
        rows.append(below("explicit formula", subject, params, value, identity_tol))
        for h, slack in sorted(res["prop31_min_slack"].items()):
            params = f"h={h}, min slack over grid"
            rows.append(
                CheckRow(
                    "Prop 3.1", subject, params, slack, -slack_tol, slack >= -slack_tol
                )
            )

    rel = cfg.tolerance("fixture_rel")
    lsig = cfg.lfun_signature()
    for degree, agg in sorted(_family_max(results, "family").items()):
        if not math.isfinite(agg["eq33"]):
            continue  # no primitive characters at this degree
        subject = f"q={cfg.q}, d(Q)={degree}"
        for short, anchor, params in [
            ("eq33", "simplified log-L bound", "family sup defect"),
            ("prop32", "Prop 3.2", "family sup defect"),
            ("eq34", "single-L bound", "family sup ratio"),
        ]:
            key = f"lfun/{short}_sup/{lsig}/q{cfg.q}_d{degree}"
            rows.append(
                fixtures.row(anchor, subject, params, key, agg[short], rel_tol=rel)
            )
    return rows, {"moduli": len(results)}


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def _moments_result(cfg: ExperimentConfig, fam, specs) -> dict:
    modulus = fam.modulus
    lhs, rhs_zeta, rhs_min = moment_report(fam, specs)
    ratio_zeta, ratio_min = lhs / rhs_zeta, lhs / rhs_min
    family = dict.fromkeys(("zeta", "min", "prop33"), -math.inf)
    out: dict = {
        "modulus": str(modulus),
        "degree": modulus.degree,
        "n_primitive": fam.n_primitive,
        "family": family,
        "thm13": {},
        "prop41": {},
        "perron_max_err": 0.0,
    }
    head = [modulus.field.q, str(modulus), modulus.degree, modulus.phi, fam.n_primitive]
    flag = int(modulus.degree == 2)
    ratios = [ratio_zeta.tolist(), ratio_min.tolist()]
    if not fam.n_primitive:
        ratios = [[""] * len(specs)] * 2
    out["moment_rows"] = [
        [*head, spec.digest, *cells, flag]
        for spec, *cells in zip(
            specs, lhs.tolist(), rhs_zeta.tolist(), rhs_min.tolist(), *ratios
        )
    ]
    if not fam.n_primitive:
        return out

    both = np.concatenate([ratio_zeta, ratio_min])
    out["finite_ok"] = bool(np.all(np.isfinite(both) & (both > 0)))
    family["zeta"] = float(np.max(ratio_zeta, initial=-math.inf))
    family["min"] = float(np.max(ratio_min, initial=-math.inf))

    # restatement on the critical circle: same values via angles
    positive = lhs > 0
    deviation = np.abs(circle_angle_moments(fam, specs) - lhs)[positive] / lhs[positive]
    out["cor12_dev"] = float(np.max(deviation, initial=0.0))
    for value in lhs[positive].tolist():
        family["prop33"] = max(family["prop33"], prop33_statistic(fam, value))

    # the samples are drawn first, then evaluated in groups of equal N,
    # since the sample count M depends on N alone
    rng = random.Random(cfg.perron.get("seed", 1) + modulus.norm)
    r = cfg.perron.get("radius", 0.5)
    factor = cfg.perron.get("points_factor", 64)
    draws = [
        (rng.randrange(fam.n_primitive), rng.randrange(0, modulus.degree + 2))
        for _ in range(cfg.perron.get("samples", 50))
    ]
    for N in sorted({n for _, n in draws}):
        rows = fam.coeffs[[i for i, n in draws if n == N]]
        M = factor * (N + modulus.degree)
        quad = perron_partial_sum(rows, N, r, M)
        err = np.max(np.abs(quad - np.sum(rows[:, : N + 1], axis=1)))
        out["perron_max_err"] = max(out["perron_max_err"], float(err))

    for m in cfg.moment_exponents:
        for yexp in cfg.y_exponents:
            out["thm13"][m, yexp] = charsum_moment(fam, m, cfg.q**yexp).ratio
    for m, im in zip(
        cfg.moment_exponents,
        integral_moment(fam, cfg.moment_exponents, cfg.quad_points),
    ):
        out["prop41"][m] = im.ratio
    return out


def cmd_moments(cfg: ExperimentConfig, fixtures: FixtureChecker, results):
    rows: list[CheckRow] = []
    ident_tol = cfg.tolerance("identity")
    moment_rows: list[list] = []
    for res in results:
        moment_rows.extend(res["moment_rows"])
        if res["n_primitive"]:
            subject, ok = res["modulus"], res["finite_ok"]
            params = "ratios finite and positive"
            value = "ok" if ok else "bad"
            rows.append(CheckRow("Thm 1.1 zeta", subject, params, value, "", ok))
            params = "contour quadrature vs direct partial sums"
            value = res["perron_max_err"]
            rows.append(below("Lemma 2.4", subject, params, value, ident_tol))
            params = "circle-angle restatement, relative deviation"
            rows.append(below("Cor 1.2", subject, params, res["cor12_dev"], 1e-9))

    rel = cfg.tolerance("fixture_rel")
    msig = cfg.moments_signature()
    thm13 = _family_max(results, "thm13")
    prop41 = _family_max(results, "prop41")
    for degree, agg in sorted(_family_max(results, "family").items()):
        if not math.isfinite(agg["zeta"]):
            continue
        subject = f"q={cfg.q}, d(Q)={degree}"
        for short, anchor, name in [
            ("thm11_zeta_max", "Thm 1.1 zeta", "zeta"),
            ("thm11_min_max", "Thm 1.1 min", "min"),
            ("prop33_max", "Prop 3.3", "prop33"),
        ]:
            key = f"moments/{short}/{msig}/q{cfg.q}_d{degree}"
            rows.append(
                fixtures.row(anchor, subject, "family max", key, agg[name], rel_tol=rel)
            )
        for (m, yexp), value in sorted(thm13[degree].items()):
            params = f"m={m}, Y=q^{yexp}" + ("" if m > 2 else " (outside stated range)")
            key = f"moments/thm13_max/q{cfg.q}_d{degree}_m{m}_y{yexp}"
            rows.append(
                fixtures.row("Thm 1.3", subject, params, key, value, rel_tol=rel)
            )
        for m, value in sorted(prop41[degree].items()):
            key = f"moments/prop41_max/q{cfg.q}_d{degree}_m{m}_quad{cfg.quad_points}"
            rows.append(
                fixtures.row("Prop 4.1", subject, f"m={m}", key, value, rel_tol=rel)
            )
    return rows, {"moduli": len(results)}, moment_rows


# ---------------------------------------------------------------------------
# primesums
# ---------------------------------------------------------------------------


def cmd_primesums(cfg: ExperimentConfig, fixtures: FixtureChecker):
    rows: list[CheckRow] = []
    table_rows: list[list] = []
    ps = cfg.primesums
    tol = {"abs_tol": cfg.tolerance("fixture_abs")}
    h_min, h_max = ps["h_min"], ps["h_max"]
    psig = cfg.primesums_signature()

    pooled = {"zeta": -math.inf, "min": -math.inf}
    slice_max = {"half": -math.inf, "full": -math.inf}
    for q in ps["qs"]:
        lnq = math.log(q)
        subject = f"q={q}"

        eq22 = max(abs(logp_sum(q, q**h) - h * lnq) for h in range(1, h_max + 1))
        params, key = f"sup defect, h<= {h_max}", f"primesums/eq22_sup/{psig}/q{q}"
        rows.append(
            fixtures.row("log-weighted prime sum", subject, params, key, eq22, **tol)
        )

        b_hat = recip_sum(q, q**h_max) - math.log(h_max * lnq)
        resid_sup = max(
            abs(recip_sum(q, q**h) - math.log(h * lnq) - b_hat) * (h * lnq)
            for h in range(h_min, h_max + 1)
        )
        for params, short, value in [
            (f"fitted b at h={h_max}", "eq23_b", b_hat),
            ("sup residual * log x", "eq23_residual_sup", resid_sup),
        ]:
            key = f"primesums/{short}/{psig}/q{q}"
            rows.append(
                fixtures.row("reciprocal prime sum", subject, params, key, value, **tol)
            )

        rows_q, sup_zeta, sup_min, per_h = mertens_grid_sweep(
            q, h_min, h_max, ps["alpha_points"]
        )
        table_rows.extend(rows_q)
        slice_max["half"] = max(slice_max["half"], per_h[h_max // 2])
        slice_max["full"] = max(slice_max["full"], per_h[h_max])
        pooled["zeta"] = max(pooled["zeta"], sup_zeta)
        pooled["min"] = max(pooled["min"], sup_min)
        for name, value in (("zeta", sup_zeta), ("min", sup_min)):
            params = f"sup |cos sum - {name} estimate|"
            key = f"primesums/lemma23_{name}_sup/{psig}/q{q}"
            rows.append(fixtures.row("Lemma 2.3", subject, params, key, value, **tol))

        tail = max(prime_power_tail(q, q**h) for h in range(1, ps["tail_h_max"] + 1))
        params = f"sup over h <= {ps['tail_h_max']}"
        key = f"primesums/tail_sup/{psig}/q{q}"
        rows.append(fixtures.row("prime power tail", subject, params, key, tail, **tol))
        rem_bounds = [
            tail_remainder_bound(q, q**4, trunc) for trunc in range(8, 33, 4)
        ]
        monotone = all(a >= b for a, b in zip(rem_bounds, rem_bounds[1:]))
        params = "remainder bound monotone in truncation"
        value = "decreasing" if monotone else "not monotone"
        rows.append(CheckRow("prime power tail", subject, params, value, "", monotone))

    for name in ("zeta", "min"):
        params = f"sup |cos sum - {name} estimate|"
        key = f"primesums/lemma23_{name}_sup/{psig}"
        rows.append(
            fixtures.row("Lemma 2.3", "pooled", params, key, pooled[name], **tol)
        )
    half, full = slice_max["half"], slice_max["full"]
    params = f"h={h_max} slice vs h={h_max // 2} slice"
    rows.append(
        CheckRow("Lemma 2.3", "pooled", params, full / half, 1.1, full <= 1.1 * half)
    )

    f_sup = fsum_defect_sup(ps["f_h_max"], ps["alpha_points"])
    subject, params = f"h <= {ps['f_h_max']}", "sup |F - log min(h, 1/theta_bar)|"
    key = f"primesums/fsum_sup/{psig}"
    rows.append(fixtures.row("F partial sum", subject, params, key, f_sup, **tol))
    return rows, {}, table_rows


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffmoments",
        description=(
            "Verification sweeps for Dirichlet L-function moments over F_q[T]"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("enumerate", "lfun", "moments", "primesums", "all"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment JSON path")
        p.add_argument("--out", default=None, help="report output directory")
        p.add_argument(
            "--record",
            action="store_true",
            help="update regression fixtures with measured constants",
        )
        p.add_argument("--jobs", type=int, default=1, help="worker processes")
        p.add_argument(
            "--budget", type=int, default=None, help="override max total phi"
        )
        if name in ("lfun", "all"):
            p.add_argument(
                "--selftest-perturb",
                action="store_true",
                help="inject a coefficient error to prove the harness can fail",
            )
    return parser


def _write_metadata(out_dir: Path, command: str, meta: dict, elapsed: float):
    payload = {
        "command": command,
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "elapsed_ms": elapsed * 1000,
        **meta,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "run_metadata.json").write_text(
        json.dumps(payload, sort_keys=True, indent=1)
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    dispatch = {
        "enumerate": (cmd_enumerate, "enumerate.csv", None),
        "lfun": (cmd_lfun, "lfun.csv", None),
        "moments": (cmd_moments, "moments_checks.csv", MOMENT_COLUMNS),
        "primesums": (cmd_primesums, "primesums_checks.csv", PRIMESUM_COLUMNS),
    }
    try:
        cfg = load_config(args.config)
        if args.budget is not None:
            cfg.budget["max_phi_total"] = args.budget
        out_dir = Path(args.out if args.out is not None else (cfg.out or "out"))
        started = time.perf_counter()
        fixtures = FixtureChecker(load_fixtures(cfg.fixtures), args.record)
        meta: dict = {}
        all_rows: list[CheckRow] = []
        commands = list(dispatch) if args.command == "all" else [args.command]
        on_family = [c for c in commands if c in FAMILY_COMMANDS]
        per_modulus = _family_results(cfg, args, on_family) if on_family else []
        for command in commands:
            cmd, checks, columns = dispatch[command]
            if command in on_family:
                results = [res[command] for res in per_modulus]
                rows, meta[command], *tables = cmd(cfg, fixtures, results)
            else:
                rows, meta[command], *tables = cmd(cfg, fixtures)
            write_check_csv(out_dir / checks, rows)
            if columns:
                write_table_csv(out_dir / f"{command}.csv", columns, tables[0])
            if command == "moments":
                write_json_rows(out_dir / "moments.json", columns, tables[0])
            all_rows.extend(rows)
        if fixtures.updated:
            save_fixtures(fixtures.fixtures, cfg.fixtures)
        _write_metadata(out_dir, args.command, meta, time.perf_counter() - started)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        # a defect in the program, never to be read as a failed check
        traceback.print_exc()
        return EXIT_INTERNAL

    failed = [r for r in all_rows if not r.passed]
    for row in failed:
        print(
            f"FAIL [{row.anchor}] {row.subject} {row.params}: value={row.value}",
            file=sys.stderr,
        )
    print(f"{len(all_rows) - len(failed)}/{len(all_rows)} checks passed")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
