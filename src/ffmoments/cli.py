"""Command-line front end for the verification sweeps.

Subcommands: enumerate | lfun | moments | primesums | all.  Each consumes a
versioned JSON config, runs its checks over the configured modulus family,
and writes deterministic CSV/JSON reports plus a separate metadata file for
timing and run counts.  Each takes exactly --config, --out (the one output
setting, default ``out``), --record and --jobs.  The check tolerances are
fixed in this module: no config can loosen them.  enumerate, lfun and
moments run one task per modulus that returns the modulus's finished check
rows and its family entries, each a value with the anchor, params and
fixture key of its family row.  One reducer, ``_family_rows``, takes the
maximum of each key over the moduli and makes its fixture row; ``main``
puts the command's own rows (enumerate's Lemma 2.2 rows, all of primesums)
first.

Every CLI process, the --jobs workers included, runs OpenBLAS on one
thread (``OPENBLAS_NUM_THREADS=1``, set before numpy loads; a value the
caller sets wins): the package's BLAS calls are too small to use a second
thread, which would only spin.  --jobs N is how a run uses more cores.

T -> T + b keeps degree and monicness, so the primitive characters mod Q
and mod Q(T + b) have the same L-polynomials, and every lfun and moments
statistic of Q is that of its translates.  ``main`` groups the moduli into
translation orbits once they are listed (``_translation_orbits``); lfun
and moments run on each orbit's first member in run order and on the
witness translates of one orbit per degree, each of which gets a
``translation`` row against its representative.  enumerate runs on every
modulus, because its plumbing rows check how each modulus itself is built.
moments.csv's ``orbit`` column counts the moduli each row stands for.

enumerate's plumbing rows check the residue kernel the unit groups are
built on, ``scale_mod_many``, against long division, and the discrete-log
table exhaustively as an isomorphism onto the exponent grid, which makes
every character multiplicative; no row builds a character value.  Exit
codes: 0 all checks passed, 1 at least one mathematical check failed, 2
configuration error, 3 internal error (an uncaught exception; its traceback
goes to stderr).
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import math
import os
import random
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

# One BLAS thread per process, set before numpy first loads: OpenBLAS starts
# its worker threads at load, and an idle worker busy-polls for a while
# (about 0.125 s of CPU per process on a 2-core host) before it sleeps.
# Every BLAS call of the package is on operands so small that OpenBLAS runs
# it on the calling thread anyway.  A value the caller sets wins; --jobs
# uses more cores.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from ffmoments._backend import digit_rows, scale_mod_many
from ffmoments.chargroup import (
    _divmod_digits,
    _even_mask,
    _from_digits,
    primitive_count_inclusion_exclusion,
)
from ffmoments.config import ConfigError, ExperimentConfig, load_config
from ffmoments.ffpoly import (
    FieldSpec,
    irreducible_count_enumerated,
    prime_count_exact,
)
from ffmoments.lfunc import (
    PrimePowerTable,
    abs_l_at,
    l_coefficient_probe,
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
    spec_columns,
)
from ffmoments.primesums import (
    TAIL_MULTIPLE,
    dropped_tail,
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

# tolerances shared by several rows; the others are stated at their row
IDENTITY_TOL = 1e-8  # an identity evaluated in floating point
TRANSLATION_TOL = 1e-12  # a witness translate against its representative
# a family maximum against its recorded fixture; the absolute part lets a
# constant of rounding noise about 0 (at q = 2 every character is even) move
FIXTURE_REL_TOL, FIXTURE_ABS_TOL = 0.25, 1e-12
ORBIT_CELL = MOMENT_COLUMNS.index("orbit")  # added to each moments row by main


class Orbits(NamedTuple):
    """The translation orbits of a run's moduli, by position in run order."""

    rep: list[int]  # per modulus, its orbit's first member in run order
    shift: list[int]  # per modulus, the b with modulus = representative(T + b)
    witnesses: list[int]  # translates computed as well, in run order

    def computed(self, i: int) -> bool:
        return self.rep[i] == i or i in self.witnesses

    def weights(self) -> list[int]:
        """Per modulus, how many of the run's moduli its results stand for:
        a witness itself, a representative the rest of its orbit, another
        translate none."""
        out = [0] * len(self.rep)
        for i, r in enumerate(self.rep):
            out[i if i in self.witnesses else r] += 1
        return out


def _translation_orbits(moduli) -> Orbits:
    """Group the moduli into orbits of T -> T + b, which keeps degree and
    monicness.  Q(T + b) has coefficients c'_k = sum_j C(j, k) b^(j-k) c_j,
    one digit-matrix product per b over the moduli of one degree.  The
    witnesses are, per degree, the translates of one orbit with more than
    one member and with primitive characters (so that its rows compare
    nonempty tables): the first whose modulus has two distinct prime
    factors (so its units are read off several local tables), or else the
    first."""
    position: dict[tuple[int, ...], int] = {}
    for i, m in enumerate(moduli):
        position.setdefault(m.poly.coeffs, i)
    rep, shift, witnesses = list(range(len(moduli))), [0] * len(moduli), []
    for n in sorted({m.degree for m in moduli}):
        at = [i for i, m in enumerate(moduli) if m.degree == n]
        q = moduli[at[0]].field.q
        coeffs = np.array([moduli[i].poly.coeffs for i in at], dtype=np.int64)
        found = []  # per b, the position of each Q(T + b), or len(moduli)
        for b in range(q):
            taylor = [
                [math.comb(j, k) * b ** max(j - k, 0) % q for k in range(n + 1)]
                for j in range(n + 1)
            ]
            rows = (coeffs @ np.array(taylor) % q).tolist()
            found.append([position.get(tuple(row), len(moduli)) for row in rows])
        members: dict[int, list[int]] = {}
        for i, translates in zip(at, zip(*found)):
            b = int(np.argmin(translates))  # modulus(T + b) is the representative
            rep[i], shift[i] = translates[b], -b % q
            members.setdefault(rep[i], []).append(i)
        shared = [
            orbit
            for orbit in members.values()
            if len(orbit) > 1 and primitive_count_inclusion_exclusion(moduli[orbit[0]])
        ]
        crt = [orbit for orbit in shared if len(moduli[orbit[0]].factors) > 1]
        if shared:
            witnesses += (crt or shared)[0][1:]
    return Orbits(rep, shift, sorted(witnesses))


def _modulus_task(payload) -> dict:
    """Build one modulus's family once and run on it the per-modulus work of
    each requested command; per command, the modulus's check rows and its
    family entries."""
    cfg, specs, signatures, modulus, commands = payload
    fam = primitive_family(modulus)
    out = {}
    if "enumerate" in commands:
        rows = _enumerate_result(fam)
        out["enumerate"] = {"degree": modulus.degree, "rows": rows, "family": []}
    if "lfun" in commands:
        out["lfun"] = _lfun_result(cfg, fam, specs, signatures["lfun"])
    if "moments" in commands:
        out["moments"] = _moments_result(cfg, fam, specs, signatures["moments"])
    return out


def _family_results(
    cfg: ExperimentConfig, jobs: int, commands, moduli, orbits: Orbits
) -> list[dict]:
    """Per modulus, in run order, the results of _modulus_task: every command
    on a representative or witness, only enumerate on another translate."""
    specs = cfg.resolved_shift_specs()
    signatures = {"lfun": cfg.lfun_signature(), "moments": cfg.moments_signature()}
    tasks = [
        commands if orbits.computed(i) else [c for c in commands if c == "enumerate"]
        for i in range(len(moduli))
    ]
    payloads = [
        (cfg, specs, signatures, m, task) for m, task in zip(moduli, tasks) if task
    ]
    if jobs > 1 and len(payloads) > 1:
        # imported here: multiprocessing adds about 2 MB to every process
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
            done = list(pool.map(_modulus_task, payloads, chunksize=1))
    else:
        done = [_modulus_task(p) for p in payloads]
    results = iter(done)
    return [next(results) if task else {} for task in tasks]


def _translation_rows(command: str, per_modulus, moduli, orbits: Orbits):
    """Per witness, the largest |v - v'| / max(1, |v|) over the command's
    family entries, lfun's |L| values sorted over the characters and moments
    table cells of its representative (v) and of the witness (v'), but the
    modulus name; inf where they do not pair up or a text cell differs."""

    def values(res):
        """The family keys; the family values, then the |L| values, then the
        table cells."""
        family = res["family"]
        cells = [c for row in res.get("moment_rows", ()) for c in row[:1] + row[2:]]
        abs_l = res.get("sorted_abs_l", [])
        return [e[2] for e in family], [*(e[3] for e in family), *abs_l, *cells]

    rows = []
    for w in orbits.witnesses:
        rep = orbits.rep[w]
        keys, ours = values(per_modulus[rep][command])
        their_keys, theirs = values(per_modulus[w][command])
        gap = 0.0 if keys == their_keys and len(ours) == len(theirs) else math.inf
        for v, v_ in zip(ours, theirs):
            if isinstance(v, str) or isinstance(v_, str):
                gap = gap if v == v_ else math.inf
            elif v != v_:
                gap = float(np.maximum(gap, abs(v - v_) / max(1.0, abs(v))))
        params = f"{moduli[rep]} at T -> T + {orbits.shift[w]}"
        rows.append(below("translation", str(moduli[w]), params, gap, TRANSLATION_TOL))
    return rows


def _family_rows(cfg: ExperimentConfig, fixtures: FixtureChecker, results):
    """One fixture row per family entry key: the maximum of its values over
    the moduli, by ascending degree, then in the order the entries came.  A
    NaN value makes the maximum NaN, which fails the row."""
    maxima: dict[str, list] = {}
    tol = {"rel_tol": FIXTURE_REL_TOL, "abs_tol": FIXTURE_ABS_TOL}
    for res in sorted(results, key=lambda res: res["degree"]):
        subject = f"q={cfg.q}, d(Q)={res['degree']}"
        for anchor, params, key, value in res["family"]:
            entry = maxima.setdefault(key, [anchor, subject, params, -math.inf])
            entry[3] = float(np.maximum(entry[3], value))
    return [
        fixtures.row(anchor, subject, params, key, value, **tol)
        for key, (anchor, subject, params, value) in maxima.items()
    ]


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def _ring_failures(modulus) -> int:
    """Failures of the residue kernel over 25 seeded triples (a, b, c) mod Q
    (want 0): each product scale_mod_many forms, ab, ac and a(b + c), against
    the long division by Q of the np.convolve product of the digits, and
    a(b + c) against ab + ac added digit-wise."""
    q, Q = modulus.field.q, modulus.poly.coeffs
    d, trials = len(Q) - 1, 25
    rng = random.Random(str(modulus))
    draws = [rng.randrange(q**d) for _ in range(3 * trials)]
    a, b, c = digit_rows(draws, q, d).T.reshape(3, trials, d)
    left, right = np.tile(a, (3, 1)), np.concatenate([b, c, (b + c) % q])
    prods = scale_mod_many(q, Q, _from_digits(q, left), _from_digits(q, right))
    convolved = np.array([np.convolve(x, y) for x, y in zip(left, right)]).T % q
    _, rem = _divmod_digits(q, convolved, Q)  # one digit row per power of T
    ab, ac, abc = digit_rows(prods, q, d).reshape(d, 3, trials).swapaxes(0, 1)
    wrong = np.count_nonzero(prods != _from_digits(q, np.array(rem).T))
    return int(wrong + np.count_nonzero(np.any((ab + ac) % q != abc, axis=0)))


def _unit_group_failures(group) -> int:
    """Failures of the discrete-log table as an isomorphism onto the
    exponent grid (want 0): per generator g_k, each unit r whose product
    r g_k from scale_mod_many is not a unit of the table or has dlog(r g_k)
    != dlog(r) + e_k mod the orders; plus one if dlog(1) != 0, and one if
    the orders do not multiply to phi(Q).  By induction over the generator
    word, dlog(prod g_k^a_k) = a, so dlog maps the phi(Q) units onto the
    grid of prod orders = phi(Q) points, and every character
    exp(2 pi i sum_k a_k dlog_k / m_k) is multiplicative.  A dlog column
    shifted by one everywhere keeps every difference: only the dlog(1) term
    sees it."""
    q, Q = group.modulus.field.q, group.modulus.poly.coeffs
    units, dlog = group.residues, group.dlog_mat
    orders = np.array(group.orders, dtype=np.int64)
    (one,), _ = group.rows_of([1])  # verify_bijection: every unit is listed
    failures = int(np.any(dlog[one]))
    failures += math.prod(group.orders) != group.modulus.phi
    for e_k, g in zip(np.eye(group.rank, dtype=np.int64), group.generators.tolist()):
        rows, unit = group.rows_of(scale_mod_many(q, Q, units, g))
        wrong = np.any((dlog[rows] - dlog) % orders != e_k, axis=1)
        failures += np.count_nonzero(~unit | wrong)
    return int(failures)


def _enumerate_result(fam) -> list[CheckRow]:
    """The plumbing rows of one modulus: the residue kernel's ring axioms,
    the factorization, the discrete-log table as an isomorphism onto the
    exponent grid, and the primitive count."""
    modulus, group = fam.modulus, fam.group
    q = modulus.field.q
    product = np.ones(1, dtype=np.int64)
    for P, e in modulus.factors:
        for _ in range(e):
            product = np.convolve(product, P.coeffs) % q
    factorization_ok = product.tolist() == list(modulus.poly.coeffs)
    factorization_ok &= modulus.phi == len(group.residues)

    factors = " * ".join(
        f"({P})^{e}" if e > 1 else f"({P})" for P, e in modulus.factors
    )
    orders = ",".join(str(m) for m in group.orders)
    ring = "seeded residue triples: products vs long division, distributivity"
    ring_wrong, dlog_wrong = _ring_failures(modulus), _unit_group_failures(group)
    n, want = fam.n_primitive, primitive_count_inclusion_exclusion(modulus)
    return [
        CheckRow(anchor, str(modulus), params, value, constant, passed)
        for anchor, params, value, constant, passed in [
            ("plumbing/ring", ring, ring_wrong, 0, ring_wrong == 0),
            ("plumbing/factorization", factors, modulus.phi, "", factorization_ok),
            ("plumbing/unit-group", f"orders={orders}", dlog_wrong, 0, dlog_wrong == 0),
            ("plumbing/primitive-count", "conductor-divisor sieve", n, want, n == want),
        ]
    ]


def cmd_enumerate(cfg: ExperimentConfig) -> list[CheckRow]:
    """The rows of the field itself: Lemma 2.2's prime counts."""
    rows: list[CheckRow] = []
    field = FieldSpec(cfg.q)
    subject = f"q={cfg.q}"

    n = 1
    while cfg.q ** (n + 1) <= cfg.budget["max_enum"] and n < 40:
        n += 1
    # the deepest degree first: its one sieve pass counts every degree
    for deg in range(n, 0, -1):
        exact = prime_count_exact(field, deg)
        enumerated = irreducible_count_enumerated(field, deg)
        drift = abs(exact - cfg.q**deg / deg)
        passed = enumerated == exact and drift <= 3 * cfg.q ** (deg / 2) / deg
        rows.append(
            CheckRow("Lemma 2.2", subject, f"n={deg}", enumerated, exact, passed)
        )
    return rows[::-1]


# ---------------------------------------------------------------------------
# lfun
# ---------------------------------------------------------------------------


def _lfun_result(cfg: ExperimentConfig, fam, specs, signature: str) -> dict:
    """The check rows of one modulus, its family entries: the log-L bound
    defects, each with the anchor, params and fixture key of its family row,
    and its |L| values on the t-grid and at the spec shifts, each column
    sorted over the characters (neither without primitive characters)."""
    modulus, coeffs = fam.modulus, fam.coeffs
    subject = str(modulus)
    rows: list[CheckRow] = []

    # degree bound: probe coefficients just past the polynomial degree
    probe_max = 0.0
    if fam.n_primitive:
        for extra in range(modulus.degree, modulus.degree + 3):
            vals = l_coefficient_probe(fam.group, fam.index, extra)
            probe_max = max(probe_max, float(np.max(np.abs(vals))))
    params = f"probe degrees {modulus.degree}..{modulus.degree + 2}"
    rows.append(below("degree bound", subject, params, probe_max, 1e-6))

    # RH root shape per primitive character, fixed by its parity, but for
    # copied conjugates (the roots of conj chi are conjugate); one row: the
    # largest deviation, at the first character attaining it
    if fam.n_primitive:
        kept = ~fam.copied_conjugates()[1]
        even = _even_mask(fam.group, fam.exponents[kept])
        devs = rh_root_deviations(coeffs[kept], even, cfg.q)
        i = int(np.argmax(devs))
        params, dev = f"largest at chi#{fam.index[kept][i]}", float(devs[i])
        rows.append(below("RH roots", subject, params, dev, 1e-6))

    # conjugation symmetry of the coefficient rows; a conjugate missing from
    # the family fails the row with inf
    conj_rows, found = fam.conjugate_rows()
    conj_max = (
        float(np.max(np.abs(coeffs[conj_rows] - np.conj(coeffs)), initial=0.0))
        if found.all()
        else math.inf
    )
    params = "coeffs(conj chi) vs conj(coeffs)"
    rows.append(below("conjugation", subject, params, conj_max, 1e-10))

    top = max(modulus.degree - 1, *cfg.x_exponents)
    explicit_max = 0.0
    min_slack = dict.fromkeys(range(1, modulus.degree), math.inf)
    family, sorted_abs_l = [], []
    if fam.n_primitive:
        table = PrimePowerTable.build(fam.group, fam.exponents, top)
        explicit_max = float(np.max(table.explicit_formula_defect(coeffs)))

        # log|L| and the simplified bound at the t-grid, then at the shifts
        # of every spec, each spec a column block; -inf at an on-circle zero
        shifts, a, starts = spec_columns(specs)
        period, n = t_period(cfg.q), cfg.t_grid_points
        grid = [i * period / n for i in range(n)]
        abs_l = abs_l_at(coeffs, cfg.q, grid + shifts)
        sorted_abs_l = np.sort(abs_l, axis=0).ravel()
        with np.errstate(divide="ignore"):
            log_abs = np.log(abs_l)
        # pointwise bound: minimum slack over characters, smoothing lengths, grid
        for h in min_slack:
            min_slack[h] = float(np.min(table.pointwise(grid, h) - log_abs[:, :n]))

        # Prop 3.2's bound is the a-weighted simplified bound at a spec's
        # shifts plus 10 log|Q|/log x
        eq33 = prop32 = -math.inf
        for h in cfg.x_exponents:
            defects = log_abs - table.simplified(grid + shifts, h)
            eq33 = float(np.maximum(eq33, np.max(defects[:, :n])))
            weighted = np.add.reduceat(defects[:, n:] * a, starts, axis=1)
            weighted -= 10 * modulus.degree / h
            prop32 = float(np.maximum(prop32, np.max(weighted)))
        scale = modulus.log_norm / loglog_norm(modulus)
        eq34 = float(np.max(log_abs[:, :n])) / scale
        key, sup = f"{signature}/{cfg.family_key(modulus.degree)}", "family sup defect"
        family = [
            ("simplified log-L bound", sup, f"lfun/eq33_sup/{key}", eq33),
            ("Prop 3.2", sup, f"lfun/prop32_sup/{key}", prop32),
            ("single-L bound", "family sup ratio", f"lfun/eq34_sup/{key}", eq34),
        ]

    params = f"n=1..{top}, prime powers vs Newton power sums"
    rows.append(below("explicit formula", subject, params, explicit_max, IDENTITY_TOL))
    tol = 1e-9
    for h, slack in min_slack.items():
        params = f"h={h}, min slack over grid"
        rows.append(CheckRow("Prop 3.1", subject, params, slack, -tol, slack >= -tol))
    return {
        "degree": modulus.degree,
        "family": family,
        "rows": rows,
        "sorted_abs_l": sorted_abs_l,
    }


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def _moments_result(cfg: ExperimentConfig, fam, specs, signature: str) -> dict:
    """The check rows of one modulus, its moments table rows and its family
    entries: the moment ratios and statistics, each with the anchor, params
    and fixture key of its family row (no rows or entries without primitive
    characters)."""
    modulus = fam.modulus
    lhs, rhs_zeta, rhs_min = moment_report(fam, specs)
    ratio_zeta, ratio_min = lhs / rhs_zeta, lhs / rhs_min
    out: dict = {"degree": modulus.degree, "family": [], "rows": []}
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

    def entry(anchor, params, key, value):
        out["family"].append((anchor, params, f"moments/{key}", value))

    qd = cfg.family_key(modulus.degree)
    both = np.concatenate([ratio_zeta, ratio_min])
    finite_ok = bool(np.all(np.isfinite(both) & (both > 0)))
    zeta_max = float(np.max(ratio_zeta, initial=-math.inf))
    entry("Thm 1.1 zeta", "family max", f"thm11_zeta_max/{signature}/{qd}", zeta_max)
    min_max = float(np.max(ratio_min, initial=-math.inf))
    entry("Thm 1.1 min", "family max", f"thm11_min_max/{signature}/{qd}", min_max)

    # restatement on the critical circle: same values via angles
    positive = lhs > 0
    deviation = np.abs(circle_angle_moments(fam, specs) - lhs)[positive] / lhs[positive]
    cor12_dev = float(np.max(deviation, initial=0.0))
    # the statistic increases with lhs, so its maximum is at the largest lhs
    prop33 = -math.inf
    if positive.any():
        prop33 = prop33_statistic(fam, float(np.max(lhs[positive])))
    entry("Prop 3.3", "family max", f"prop33_max/{signature}/{qd}", prop33)

    # the samples are drawn first, then evaluated in groups of equal N,
    # since the sample count M depends on N alone
    perron = cfg.perron
    rng = random.Random(perron["seed"] + modulus.norm)
    draws = [
        (rng.randrange(fam.n_primitive), rng.randrange(0, modulus.degree + 2))
        for _ in range(perron["samples"])
    ]
    perron_max_err = 0.0
    for N in sorted({n for _, n in draws}):
        sample = fam.coeffs[[i for i, n in draws if n == N]]
        M = perron["points_factor"] * (N + modulus.degree)
        quad = perron_partial_sum(sample, N, perron["radius"], M)
        err = np.max(np.abs(quad - np.sum(sample[:, : N + 1], axis=1)))
        perron_max_err = float(np.maximum(perron_max_err, err))

    for m, yexp in sorted(itertools.product(cfg.moment_exponents, cfg.y_exponents)):
        params = f"m={m}, Y=q^{yexp}" + ("" if m > 2 else " (outside stated range)")
        value = charsum_moment(fam, m, cfg.q**yexp).ratio
        entry("Thm 1.3", params, f"thm13_max/{qd}_m{m}_y{yexp}", value)
    moments = integral_moment(fam, cfg.moment_exponents, cfg.quad_points)
    for m, im in sorted(zip(cfg.moment_exponents, moments), key=lambda p: p[0]):
        key = f"prop41_max/{qd}_m{m}_quad{cfg.quad_points}"
        entry("Prop 4.1", f"m={m}", key, im.ratio)

    subject = str(modulus)
    value = "ok" if finite_ok else "bad"
    params = "ratios finite and positive"
    rows = [CheckRow("Thm 1.1 zeta", subject, params, value, "", finite_ok)]
    params = "contour quadrature vs direct partial sums"
    rows.append(below("Lemma 2.4", subject, params, perron_max_err, IDENTITY_TOL))
    params = "circle-angle restatement, relative deviation"
    rows.append(below("Cor 1.2", subject, params, cor12_dev, 1e-9))
    out["rows"] = rows
    return out


# ---------------------------------------------------------------------------
# primesums
# ---------------------------------------------------------------------------


def cmd_primesums(cfg: ExperimentConfig, fixtures: FixtureChecker):
    rows: list[CheckRow] = []
    table_rows: list[tuple] = []
    ps = cfg.primesums
    tol = {"abs_tol": 1e-9}
    h_min, h_max = ps["h_min"], ps["h_max"]
    psig = cfg.primesums_signature()

    pooled = {"zeta": -math.inf, "min": -math.inf}
    slice_max = {"half": -math.inf, "full": -math.inf}
    for q in ps["qs"]:
        log_x = np.arange(h_max + 1) * math.log(q)  # log q^h at each cutoff h
        subject = f"q={q}"

        # the empty sum at h = 0 has defect 0
        eq22 = float(np.max(np.abs(logp_sum(q, h_max) - log_x)))
        params, key = f"sup defect, h<= {h_max}", f"primesums/eq22_sup/{psig}/q{q}"
        rows.append(
            fixtures.row("log-weighted prime sum", subject, params, key, eq22, **tol)
        )

        # the constant b is fitted at h_max, the residual taken over h_min..h_max
        recip, log_x = recip_sum(q, h_max)[h_min:], log_x[h_min:]
        b_hat = float(recip[-1] - math.log(log_x[-1]))
        resid_sup = float(np.max(np.abs(recip - np.log(log_x) - b_hat) * log_x))
        for params, short, value in [
            (f"fitted b at h={h_max}", "eq23_b", b_hat),
            ("sup residual * log x", "eq23_residual_sup", resid_sup),
        ]:
            key = f"primesums/{short}/{psig}/q{q}"
            rows.append(
                fixtures.row("reciprocal prime sum", subject, params, key, value, **tol)
            )

        columns, sup_zeta, sup_min, per_h = mertens_grid_sweep(
            q, h_min, h_max, ps["alpha_points"]
        )
        table_rows.extend(zip(*(column.tolist() for column in columns)))
        slice_max["half"] = max(slice_max["half"], float(per_h[h_max // 2 - h_min]))
        slice_max["full"] = max(slice_max["full"], float(per_h[-1]))
        pooled["zeta"] = max(pooled["zeta"], sup_zeta)
        pooled["min"] = max(pooled["min"], sup_min)
        for name, value in (("zeta", sup_zeta), ("min", sup_min)):
            params = f"sup |cos sum - {name} estimate|"
            key = f"primesums/lemma23_{name}_sup/{psig}/q{q}"
            rows.append(fixtures.row("Lemma 2.3", subject, params, key, value, **tol))

        tail = float(np.max(prime_power_tail(q, ps["tail_h_max"])))
        params = f"sup over h <= {ps['tail_h_max']}"
        key = f"primesums/tail_sup/{psig}/q{q}"
        rows.append(fixtures.row("prime power tail", subject, params, key, tail, **tol))
        hs = np.arange(1, ps["tail_h_max"] + 1)
        bounds = tail_remainder_bound(hs, TAIL_MULTIPLE * hs)
        ratio = float(np.max(dropped_tail(q, ps["tail_h_max"]) / bounds))
        params = f"dropped tail / remainder bound, h <= {ps['tail_h_max']}"
        rows.append(below("prime power tail", subject, params, ratio, 1.0))

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
    return rows, table_rows


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
        p.add_argument("--out", default="out", help="report output directory")
        p.add_argument(
            "--record",
            action="store_true",
            help="update regression fixtures with measured constants",
        )
        p.add_argument("--jobs", type=int, default=1, help="worker processes")
    return parser


def _peak_rss_mb(jobs: int) -> float:
    """The resident high-water mark so far, in MB (ru_maxrss is in kB on
    Linux): of this process, or with workers, of it or the largest worker."""
    who = [resource.RUSAGE_SELF] + ([resource.RUSAGE_CHILDREN] if jobs > 1 else [])
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024


def _write_metadata(out_dir: Path, command: str, meta: dict, elapsed: float, jobs: int):
    payload = {
        "command": command,
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "elapsed_ms": elapsed * 1000,
        "peak_rss_mb": _peak_rss_mb(jobs),
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
    reports = {
        "enumerate": ("enumerate.csv", None),
        "lfun": ("lfun.csv", None),
        "moments": ("moments_checks.csv", MOMENT_COLUMNS),
        "primesums": ("primesums_checks.csv", PRIMESUM_COLUMNS),
    }
    try:
        cfg = load_config(args.config)
        out_dir = Path(args.out)
        started = time.perf_counter()
        fixtures = FixtureChecker(load_fixtures(cfg.fixtures), args.record)
        meta: dict = {}
        all_rows: list[CheckRow] = []
        commands = list(reports) if args.command == "all" else [args.command]
        on_family = [c for c in commands if c in FAMILY_COMMANDS]
        moduli = cfg.modulus_list() if on_family else []
        orbits = _translation_orbits(moduli)
        per_modulus = _family_results(cfg, args.jobs, on_family, moduli, orbits)
        weights = orbits.weights()
        for command in commands:
            checks, columns = reports[command]
            if command == "primesums":
                rows, table = cmd_primesums(cfg, fixtures)
                meta[command] = {}
            else:
                done = [i for i, res in enumerate(per_modulus) if command in res]
                results = [per_modulus[i][command] for i in done]
                rows = cmd_enumerate(cfg) if command == "enumerate" else []
                rows += [row for res in results for row in res["rows"]]
                if command != "enumerate":
                    rows += _translation_rows(command, per_modulus, moduli, orbits)
                rows += _family_rows(cfg, fixtures, results)
                table = [
                    [*row[:ORBIT_CELL], weights[i], *row[ORBIT_CELL:]]
                    for i in done
                    for row in per_modulus[i][command].get("moment_rows", ())
                ]
                meta[command] = {
                    "moduli": len(moduli),
                    "orbits": sum(r == i for i, r in enumerate(orbits.rep)),
                    "computed": len(done),
                }
            write_check_csv(out_dir / checks, rows)
            if columns:
                write_table_csv(out_dir / f"{command}.csv", columns, table)
            if command == "moments":
                write_json_rows(out_dir / "moments.json", columns, table)
            all_rows.extend(rows)
        if fixtures.updated:
            save_fixtures(fixtures.fixtures, cfg.fixtures)
        elapsed = time.perf_counter() - started
        _write_metadata(out_dir, args.command, meta, elapsed, args.jobs)
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
