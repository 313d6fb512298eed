"""Translation orbits: T -> T + b keeps degree and monicness and maps the
primitive characters mod Q onto those mod Q(T + b) with the same
L-polynomials, so lfun and moments run on one representative per orbit plus
the witness translates whose ``translation`` rows check that claim."""

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from ffmoments import cli
from ffmoments.chargroup import UnitGroup, factor_modulus
from ffmoments.config import load_config
from ffmoments.ffpoly import FqPoly
from ffmoments.lfunc import l_coefficients, primitive_family

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(CONFIGS.glob("*.json"))


def shifted(Q: FqPoly, b: int) -> FqPoly:
    """Q(T + b) by Horner's rule in FqPoly arithmetic."""
    field = Q.field
    out, step = FqPoly.zero(field), FqPoly(field, [b, 1])
    for c in reversed(Q.coeffs):
        out = out * step + FqPoly.constant(field, c)
    return out


def in_t_q_minus_t(Q: FqPoly) -> bool:
    """Q is a polynomial in S = T^q - T: every base-S digit is a constant."""
    q = Q.field.q
    S = FqPoly(Q.field, [0, q - 1] + [0] * (q - 2) + [1])
    while not Q.is_zero:
        Q, r = divmod(Q, S)
        if r.degree > 0:
            return False
    return True


def read_rows(path: Path) -> list[dict]:
    with path.open() as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.stem)
def test_orbits_partition_the_moduli(path):
    moduli = load_config(path).modulus_list()
    orbits = cli._translation_orbits(moduli)
    polys = [m.poly for m in moduli]
    q = polys[0].field.q
    first = {}
    for i, Q in enumerate(polys):
        first.setdefault(Q, i)
    for i, Q in enumerate(polys):
        members = {first[T] for b in range(q) if (T := shifted(Q, b)) in first}
        assert orbits.rep[i] == min(members)
        assert {j for j, r in enumerate(orbits.rep) if r == orbits.rep[i]} == members
        assert shifted(polys[orbits.rep[i]], orbits.shift[i]) == Q
    assert sum(orbits.weights()) == len(moduli)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.stem)
def test_witnesses_are_the_translates_of_one_orbit_per_degree(path):
    # of the orbits with more than one member and with primitive characters,
    # the first with two distinct prime factors, else the first
    moduli = load_config(path).modulus_list()
    orbits = cli._translation_orbits(moduli)
    for n in sorted({m.degree for m in moduli}):
        orbit_of: dict[int, list[int]] = {}
        for i, r in enumerate(orbits.rep):
            if moduli[i].degree == n:
                orbit_of.setdefault(r, []).append(i)
        shared = [
            o
            for o in orbit_of.values()
            if len(o) > 1 and primitive_family(moduli[o[0]]).n_primitive
        ]
        crt = [o for o in shared if len(moduli[o[0]].factors) >= 2]
        want = (crt or shared)[0][1:] if shared else []
        assert [w for w in orbits.witnesses if moduli[w].degree == n] == want
    weights = orbits.weights()
    assert all(orbits.computed(w) and weights[w] == 1 for w in orbits.witnesses)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.stem)
def test_every_witness_has_primitive_characters(path):
    # a witness without them would compare two empty tables
    moduli = load_config(path).modulus_list()
    for w in cli._translation_orbits(moduli).witnesses:
        assert primitive_family(moduli[w]).n_primitive > 0, str(moduli[w])


def test_witnesses_of_moments_q3():
    moduli = load_config(CONFIGS / "moments_q3.json").modulus_list()
    orbits = cli._translation_orbits(moduli)
    pairs = [(str(moduli[orbits.rep[w]]), str(moduli[w])) for w in orbits.witnesses]
    assert pairs == [
        ("T^2 + 2", "T^2 + T"),
        ("T^2 + 2", "T^2 + 2*T"),
        ("T^3 + T", "T^3 + T + 1"),
        ("T^3 + T", "T^3 + T + 2"),
        ("T^4 + 1", "T^4 + T^3 + T + 2"),
        ("T^4 + 1", "T^4 + 2*T^3 + 2*T + 2"),
        ("T^5 + 1", "T^5 + T^4 + T^3 + 2*T^2 + 2*T"),
        ("T^5 + 1", "T^5 + 2*T^4 + T^3 + T^2 + 2*T + 2"),
    ]


def test_lfun_q2_d3_witnesses_skip_orbits_without_primitive_characters():
    # at degree 3 the first orbit with two prime factors, that of T^3 + 1 =
    # (T + 1)(T^2 + T + 1), has none: a simple degree-1 factor at q = 2 has
    # only the principal character
    moduli = load_config(CONFIGS / "lfun_q2_d3.json").modulus_list()
    orbits = cli._translation_orbits(moduli)
    pairs = [(str(moduli[orbits.rep[w]]), str(moduli[w])) for w in orbits.witnesses]
    assert pairs == [("T^2", "T^2 + 1"), ("T^3", "T^3 + T^2 + T + 1")]


@pytest.mark.parametrize(
    "path", [p for p in SHIPPED if "family" in p.read_text()], ids=lambda p: p.stem
)
def test_orbit_sizes_are_q_but_in_t_q_minus_t(path):
    moduli = load_config(path).modulus_list()
    orbits = cli._translation_orbits(moduli)
    q = moduli[0].field.q
    sizes = np.bincount(orbits.rep, minlength=len(moduli))
    fixed = 0
    for i, m in enumerate(moduli):
        size = sizes[orbits.rep[i]]
        fixed += size == 1
        assert size == (1 if in_t_q_minus_t(m.poly) else q), str(m)
    # a monic polynomial of degree n = q k in S = T^q - T has k free digits
    degrees = {m.degree for m in moduli}
    assert fixed == sum(q ** (n // q) for n in degrees if n % q == 0)


@pytest.mark.parametrize("name", ["lfun_q2_d3", "smoke_q3_d2"])
def test_translates_share_their_l_coefficient_rows(name):
    def sorted_rows(coeffs):
        keys = np.round(coeffs, 8) + 0.0  # -0.0 sorts as 0.0
        order = np.lexsort([part for c in keys.T[::-1] for part in (c.imag, c.real)])
        return coeffs[order]

    for modulus in load_config(CONFIGS / f"{name}.json").modulus_list():
        rows = sorted_rows(primitive_family(modulus).coeffs)
        for b in range(1, modulus.field.q):
            translate = primitive_family(factor_modulus(shifted(modulus.poly, b)))
            assert translate.coeffs.shape == rows.shape
            assert np.allclose(sorted_rows(translate.coeffs), rows, atol=1e-9)


def test_moments_rows_stand_for_their_orbits(tmp_path):
    # smoke_q3_d2: the orbits of T^2 and T^2 + 1 have one row each, standing
    # for three moduli; T^2 + 2 stands for itself, as do its witness
    # translates T^2 + T and T^2 + 2*T
    cfg = str(CONFIGS / "smoke_q3_d2.json")
    assert cli.main(["moments", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "moments.csv")
    weights = {r["modulus"]: int(r["orbit"]) for r in rows}
    assert weights == {
        "T^2": 3, "T^2 + 1": 3, "T^2 + 2": 1, "T^2 + T": 1, "T^2 + 2*T": 1
    }
    for spec in {r["spec"] for r in rows}:
        assert sum(int(r["orbit"]) for r in rows if r["spec"] == spec) == 9
    checks = read_rows(tmp_path / "moments_checks.csv")
    translation = [r for r in checks if r["anchor"] == "translation"]
    assert [(r["subject"], r["params"], r["status"]) for r in translation] == [
        ("T^2 + T", "T^2 + 2 at T -> T + 2", "pass"),
        ("T^2 + 2*T", "T^2 + 2 at T -> T + 1", "pass"),
    ]


def swap_dlog_rows(fam):
    """The family on a unit group whose dlog rows of the residue 1 and of
    the largest unit residue a are swapped, with its L-coefficients rebuilt:
    each L-polynomial's constant term reads chi(a).  (A swap of two residues
    of one degree would keep every L-coefficient.)"""
    g = fam.group
    dlog_mat = g.dlog_mat.copy()
    dlog_mat[[0, -1]] = dlog_mat[[-1, 0]]
    group = UnitGroup(g.modulus, g.generators, g.orders, g.residues, dlog_mat)
    coeffs = l_coefficients(group, fam.index)
    return dataclasses.replace(fam, group=group, coeffs=coeffs)


def drop_character(fam, i: int = 0):
    keep = np.arange(fam.n_primitive) != i
    return dataclasses.replace(
        fam,
        index=fam.index[keep],
        exponents=fam.exponents[keep],
        coeffs=fam.coeffs[keep],
    )


def drop_first_character(fam):
    return drop_character(fam)


def quartic_orbit_config(tmp_path) -> str:
    """smoke_q3_d2's settings on the orbit of T^4 + 1 = (T^2 + T + 2)(T^2 +
    2T + 2) at q = 3, 49 primitive characters each, its fixtures recorded."""
    d = json.loads((CONFIGS / "smoke_q3_d2.json").read_text())
    del d["family"]
    d["moduli"] = ["T^4 + 1", "T^4 + T^3 + T + 2", "T^4 + 2*T^3 + 2*T + 2"]
    d["fixtures"] = str(tmp_path / "fixtures.json")
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps(d))
    record = ["--out", str(tmp_path / "record"), "--record"]
    assert cli.main(["moments", "--config", str(path), *record]) == 0
    return str(path)


@pytest.mark.parametrize("fault", [swap_dlog_rows, drop_first_character])
@pytest.mark.parametrize(
    "witness", ["T^2 + T", "T^2 + 2*T", "T^4 + T^3 + T + 2", "T^4 + 2*T^3 + 2*T + 2"]
)
def test_faulty_witness_fails_its_translation_row(
    fault, witness, tmp_path, monkeypatch
):
    cfg = str(CONFIGS / "smoke_q3_d2.json")
    if witness.startswith("T^4"):
        cfg = quartic_orbit_config(tmp_path)

    def faulty(modulus):
        fam = primitive_family(modulus)
        return fault(fam) if str(modulus) == witness else fam

    monkeypatch.setattr(cli, "primitive_family", faulty)
    out = tmp_path / "out"
    assert cli.main(["moments", "--config", cfg, "--out", str(out)]) == 1
    # of the per-modulus rows only the translation row sees the fault; a
    # family maximum that the faulty witness enters may fail as well
    failed = [
        (r["anchor"], r["subject"])
        for r in read_rows(out / "moments_checks.csv")
        if r["status"] == "fail" and not r["subject"].startswith("q=")
    ]
    assert failed == [("translation", witness)]


@pytest.mark.parametrize("i", [0, 5])
def test_lfun_translation_row_sees_a_dropped_character(i, tmp_path, monkeypatch):
    # the family sup defects are maxima over the characters and may not move
    # when one is dropped; the |L| values sorted over the characters do
    cfg = quartic_orbit_config(tmp_path)
    witness = "T^4 + T^3 + T + 2"

    def translation_rows(fault, out):
        def family(modulus):
            fam = primitive_family(modulus)
            return fault(fam) if str(modulus) == witness else fam

        monkeypatch.setattr(cli, "primitive_family", family)
        cli.main(["lfun", "--config", cfg, "--out", str(out)])
        rows = read_rows(out / "lfun.csv")
        return {r["subject"]: r["status"] for r in rows if r["anchor"] == "translation"}

    intact = translation_rows(lambda fam: fam, tmp_path / "intact")
    assert intact == {witness: "pass", "T^4 + 2*T^3 + 2*T + 2": "pass"}
    dropped = translation_rows(lambda fam: drop_character(fam, i), tmp_path / "dropped")
    assert dropped == {witness: "fail", "T^4 + 2*T^3 + 2*T + 2": "pass"}
