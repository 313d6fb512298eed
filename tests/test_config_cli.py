"""Configuration schema validation and CLI behavior (exit codes,
determinism, fault injection)."""

import argparse
import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ffmoments import _backend, cli
from ffmoments._backend import scale_mod_many
from ffmoments.anchors import CHECK_ANCHORS
from ffmoments.chargroup import (
    DirichletChar,
    UnitGroup,
    all_characters,
    character_values,
    factor_modulus,
    unit_group,
)
from ffmoments.cli import build_parser, main
from ffmoments.config import (
    SECTION_DEFAULTS,
    ConfigError,
    ExperimentConfig,
    load_config,
)
from ffmoments.ffpoly import FieldSpec, parse_poly
from ffmoments.lfunc import primitive_family
from ffmoments.report import (
    MOMENT_COLUMNS,
    CheckRow,
    FixtureChecker,
    below,
    load_fixtures,
    save_fixtures,
    write_json_rows,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
WORKLOADS = CONFIGS.parent / "perfbench" / "workloads"


def full_config_dict() -> dict:
    return {
        "schema": 1,
        "q": 3,
        "family": {"min_degree": 2, "max_degree": 2},
        "moduli": None,
        "shift_specs": [{"a": [1.0, 1.0], "t": [0.0, 0.0]}],
        "moment_exponents": [2.5],
        "y_exponents": [1],
        "x_exponents": [1],
        "t_grid_points": 8,
        "quad_points": 512,
        "perron": {"samples": 5, "radius": 0.5, "points_factor": 64, "seed": 1},
        "primesums": {
            "qs": [3],
            "h_min": 2,
            "h_max": 4,
            "alpha_points": 8,
            "tail_h_max": 3,
            "f_h_max": 50,
        },
        "budget": {"max_phi_total": 1000, "max_enum": 729},
        "fixtures": None,
    }


# (section, field, value) that must not load; a dotted section is a path of
# objects, an empty one the top level
OUT_OF_RANGE = [
    ("perron", "radius", 0),
    ("perron", "radius", 1.0),
    ("perron", "radius", "0.5"),
    ("perron", "points_factor", 7),
    ("perron", "points_factor", 8.0),
    ("primesums", "qs", []),
    ("primesums", "qs", [3, 4]),
    ("primesums", "qs", 3),
    ("primesums", "h_min", 0),
    ("primesums", "h_max", 3),  # below 2 * h_min = 4
    ("primesums", "tail_h_max", 0),
    ("primesums", "alpha_points", 0),
    ("primesums", "f_h_max", 0),
    ("perron", "samples", -1),
    ("perron", "seed", "a"),
    ("", "shift_specs", {}),
    ("shift_specs.random", "count", "3"),
    ("", "t_grid_points", "8"),
    ("", "moment_exponents", "x"),
    ("", "quad_points", 512.5),
    ("", "y_exponents", [-1]),
    ("", "q", "3"),
    ("", "moduli", 5),
    ("", "shift_specs", 5),
    ("", "x_exponents", 3),
    ("budget", "max_phi_total", "1000"),
    ("budget", "max_enum", "729"),
]


def set_field(d: dict, section: str, name: str, value):
    """Set d[section][name], making the objects along a dotted section that
    d does not hold as objects."""
    node = d
    for key in filter(None, section.split(".")):
        if not isinstance(node.get(key), dict):
            node[key] = {}
        node = node[key]
    node[name] = value


class TestConfig:
    def test_round_trip_identity(self):
        d = full_config_dict()
        assert dataclasses.asdict(ExperimentConfig.from_dict(d)) == d

    def test_unknown_field_rejected(self):
        d = full_config_dict()
        d["surprise"] = 1
        with pytest.raises(ConfigError, match="unknown fields"):
            ExperimentConfig.from_dict(d)

    def test_unknown_nested_field_rejected(self):
        d = full_config_dict()
        d["budget"]["max_widgets"] = 5
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    def test_schema_required(self):
        d = full_config_dict()
        d["schema"] = 2
        with pytest.raises(ConfigError, match="schema"):
            ExperimentConfig.from_dict(d)

    def test_x_exponents_positive_integers(self):
        for bad in ([], [0], [1, -2], [1.5]):
            d = full_config_dict()
            d["x_exponents"] = bad
            with pytest.raises(ConfigError, match="x_exponents"):
                ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("section, name, bad", OUT_OF_RANGE)
    def test_section_values_in_range(self, section, name, bad):
        d = full_config_dict()
        set_field(d, section, name, bad)
        field = f"{section}.{name}" if section else name
        with pytest.raises(ConfigError, match=f"{field} "):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "path",
        sorted(CONFIGS.glob("*.json")) + sorted(WORKLOADS.glob("*.json")),
        ids=lambda path: f"{path.parent.name}/{path.name}",
    )
    def test_shipped_configs_load(self, path):
        # every shipped and benchmarked config loads, resolves its shift
        # specs and stays within its budget
        cfg = load_config(path)
        assert cfg.resolved_shift_specs()
        assert cfg.modulus_list()

    def test_family_or_moduli_required(self):
        d = full_config_dict()
        d["family"] = None
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    def test_modulus_list_counts_family(self):
        cfg = ExperimentConfig.from_dict(full_config_dict())
        assert len(cfg.modulus_list()) == 9  # all monic quadratics over F_3

    def test_budget_enforced(self):
        d = full_config_dict()
        d["budget"]["max_phi_total"] = 10
        with pytest.raises(ConfigError, match="budget"):
            ExperimentConfig.from_dict(d).modulus_list()

    def test_malformed_modulus_string(self):
        d = full_config_dict()
        d["family"] = None
        d["moduli"] = ["T^2 + ??"]
        with pytest.raises(ConfigError, match="position"):
            ExperimentConfig.from_dict(d).modulus_list()

    def test_random_specs_deterministic(self):
        d = full_config_dict()
        d["shift_specs"] = {
            "random": {"count": 5, "half_k": 2, "a_min": 0.5, "a_max": 2.0, "seed": 9}
        }
        cfg = ExperimentConfig.from_dict(d)
        first = cfg.resolved_shift_specs()
        second = cfg.resolved_shift_specs()
        assert first == second
        assert len(first) == 5 and all(len(s.a) == 4 for s in first)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")


class TestReportRows:
    def test_below_is_strict(self):
        assert below("Cor 1.2", "s", "p", 0.5, 1.0).passed
        assert not below("Cor 1.2", "s", "p", 1.0, 1.0).passed
        assert not below("Cor 1.2", "s", "p", float("nan"), 1.0).passed
        row = below("Cor 1.2", "s", "p", 0.5, 1.0)
        assert row == CheckRow("Cor 1.2", "s", "p", 0.5, 1.0, True)

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("recorded", 1.1, (True, 1.0)),  # within 25 % of 1.0
            ("missing", 1.1, (False, "")),  # unrecorded: fails, blank constant
            ("recorded", 2.0, (False, 1.0)),  # out of tolerance
            ("recorded", float("inf"), (False, 1.0)),  # non-finite
        ],
    )
    def test_fixture_row_matches_check(self, key, value, expected):
        fixtures = FixtureChecker({"recorded": 1.0}, record=False)
        assert fixtures.check(key, value, rel_tol=0.25) == expected
        row = fixtures.row("Prop 3.3", "s", "p", key, value, rel_tol=0.25)
        assert row == CheckRow("Prop 3.3", "s", "p", value, expected[1], expected[0])

    @pytest.mark.parametrize(
        "value, tol, passed",
        [
            (1.375, {"rel_tol": 0.25, "abs_tol": 0.125}, True),  # the sum, exactly
            (1.5, {"rel_tol": 0.25, "abs_tol": 0.125}, False),
            (1.125, {"abs_tol": 0.125}, True),  # rel_tol defaults to 0
            (1.25, {"abs_tol": 0.125}, False),
            (1.25, {"rel_tol": 0.25}, True),  # abs_tol defaults to 0
            (1.0, {}, True),  # no tolerance: equality only
            (1.0 + 4e-16, {}, False),
        ],
    )
    def test_fixture_tolerance_is_absolute_plus_relative(self, value, tol, passed):
        fixtures = FixtureChecker({"recorded": 1.0}, record=False)
        assert fixtures.check("recorded", value, **tol) == (passed, 1.0)

    def test_family_rows_tolerate_noise_about_zero(self):
        # at q = 2 every character is even, so the Thm 1.3 family maxima are
        # rounding noise: recorded 0.0 at degree 2 and below 1e-79 at degree 3
        cfg = load_config(CONFIGS / "lfun_q2_d3.json")
        fixtures = FixtureChecker(load_fixtures(), record=False)
        keys = [k for k in fixtures.fixtures if k.startswith("moments/thm13_max/q2_")]
        d3 = [k for k in keys if k.startswith("moments/thm13_max/q2_d3_")]
        d2 = [k for k in keys if k.startswith("moments/thm13_max/q2_d2_")]
        assert len(d3) == len(d2) == 4
        assert all(0 < fixtures.fixtures[k] < 1e-79 for k in d3)
        assert all(fixtures.fixtures[k] == 0.0 for k in d2)
        family = [("Thm 1.3", "p", k, 1e6 * fixtures.fixtures[k]) for k in d3]
        rows = cli._family_rows(cfg, fixtures, [{"degree": 3, "family": family}])
        assert len(rows) == 4 and all(row.passed for row in rows)
        family = [("Thm 1.3", "p", k, 1e-3) for k in d2]
        rows = cli._family_rows(cfg, fixtures, [{"degree": 2, "family": family}])
        assert len(rows) == 4 and not any(row.passed for row in rows)

    @pytest.mark.parametrize("values", [[1.0, math.nan], [math.nan, 1.0]])
    def test_nan_family_value_fails_its_row(self, values):
        fixtures = FixtureChecker({"k": 1.0}, record=False)
        results = [
            {"degree": 2, "family": [("Prop 3.3", "p", "k", value)]} for value in values
        ]
        (row,) = cli._family_rows(SimpleNamespace(q=3), fixtures, results)
        assert math.isnan(row.value) and not row.passed
        (row,) = cli._family_rows(SimpleNamespace(q=3), fixtures, results[:1] * 2)
        assert row.passed == (values[0] == 1.0)

    def test_nan_bound_at_one_cutoff_reaches_lfun_family(self, monkeypatch):
        # a NaN simplified bound at the first of two cutoffs h makes the
        # running eq33 and Prop 3.2 maxima NaN, not the second cutoff's value
        cfg = load_config(CONFIGS / "smoke_q3_d2.json")
        cfg = dataclasses.replace(cfg, x_exponents=[1, 2])
        fam = primitive_family(factor_modulus(parse_poly(FieldSpec(3), "T^2 + 1")))
        simplified = cli.PrimePowerTable.simplified

        def nan_at_first(self, ts, h):
            out = simplified(self, ts, h)
            return out * math.nan if h == 1 else out

        args = (cfg, fam, cfg.resolved_shift_specs(), cfg.lfun_signature())
        family = {a: v for a, _, _, v in cli._lfun_result(*args)["family"]}
        assert all(math.isfinite(v) for v in family.values())
        monkeypatch.setattr(cli.PrimePowerTable, "simplified", nan_at_first)
        family = {a: v for a, _, _, v in cli._lfun_result(*args)["family"]}
        assert math.isnan(family["simplified log-L bound"])
        assert math.isnan(family["Prop 3.2"])
        assert math.isfinite(family["single-L bound"])

    def test_nan_perron_error_fails_lemma24(self, monkeypatch):
        # a NaN quadrature in the first group of equal N fails the row
        cfg = load_config(CONFIGS / "smoke_q3_d2.json")
        fam = primitive_family(factor_modulus(parse_poly(FieldSpec(3), "T^2 + 1")))
        perron_partial_sum, calls = cli.perron_partial_sum, []

        def nan_first(*args):
            calls.append(args)
            return perron_partial_sum(*args) * (math.nan if len(calls) == 1 else 1)

        monkeypatch.setattr(cli, "perron_partial_sum", nan_first)
        args = (cfg, fam, cfg.resolved_shift_specs(), cfg.moments_signature())
        rows = cli._moments_result(*args)["rows"]
        (row,) = [row for row in rows if row.anchor == "Lemma 2.4"]
        assert len(calls) > 1 and math.isnan(row.value) and not row.passed


    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [[3, "T^2", 2, 6, 4, "ab12", 1.5, 2.25, 3.0, "", "", 1]],
            [
                [2, "T^3 + T + 1", 3, 7, 6, "\u00e9\u2211\U0001d11e", -0.0, 1e-300]
                + [math.inf, -math.inf, 0.1 + 0.2, 0],
                [10**20, 'say "hi"', -7, 0, 0, "back\\slash\n\ttab", 5e-324]
                + [1.7976931348623157e308, "", "", True, None],
            ],
        ],
        ids=["empty", "one-row", "awkward"],
    )
    def test_json_rows_match_indented_dumps(self, tmp_path, rows):
        # each row goes through the C encoder alone; the file must be the
        # pure-Python indented encoding of the whole table, byte for byte
        path = tmp_path / "moments.json"
        write_json_rows(path, MOMENT_COLUMNS, rows)
        payload = [dict(zip(MOMENT_COLUMNS, row)) for row in rows]
        expected = json.dumps(payload, sort_keys=True, indent=1)
        assert path.read_bytes() == expected.encode()
        assert rows or expected == "[]"

    def test_json_rows_written_row_by_row(self, tmp_path):
        # no list of encoded rows or joined document is held: the traced
        # peak stays below a quarter of the file written
        rows = [
            [3, f"T^5 + {i}", 5, 242, 240, 1, f"{i:012x}", i / 7, math.pi * i]
            + [math.e * i, 1 / (i + 1), 2 / (i + 3), 0]
            for i in range(5000)
        ]
        path = tmp_path / "moments.json"
        tracemalloc.start()
        try:
            write_json_rows(path, MOMENT_COLUMNS, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak < size / 4
        payload = [dict(zip(MOMENT_COLUMNS, row)) for row in rows]
        expected = json.dumps(payload, sort_keys=True, indent=1)
        assert path.read_bytes() == expected.encode()


def run_cli(*argv) -> int:
    return main(list(argv))


def imported_by_cli(module: str) -> bool:
    """Whether `import ffmoments.cli` in a fresh interpreter imports module."""
    code = f"import sys, ffmoments.cli; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip() == "True"


def enumerate_rows(q: int, text: str, group=None) -> dict:
    """enumerate's rows of one modulus by anchor, with its family's unit
    group replaced by the given one, if any."""
    fam = primitive_family(factor_modulus(parse_poly(FieldSpec(q), text)))
    if group is not None:
        fam = dataclasses.replace(fam, group=group)
    return {r.anchor: r for r in cli._enumerate_result(fam)}


def failing(rows: dict) -> dict:
    """The value of each row that fails, by anchor."""
    return {anchor: r.value for anchor, r in rows.items() if not r.passed}


def with_dlog(group: UnitGroup, dlog_mat) -> UnitGroup:
    return UnitGroup(
        group.modulus, group.generators, group.orders, group.residues, dlog_mat
    )


def read_rows(path: Path) -> list[dict]:
    with path.open() as fh:
        return list(csv.DictReader(fh))


class TestCli:
    @pytest.fixture()
    def smoke(self, tmp_path):
        cfg = str(CONFIGS / "smoke_q3_d2.json")
        return cfg, tmp_path

    def test_enumerate_exit_zero_and_rows(self, smoke):
        cfg, tmp = smoke
        out = tmp / "out"
        assert run_cli("enumerate", "--config", cfg, "--out", str(out)) == 0
        rows = read_rows(out / "enumerate.csv")
        moduli = {r["subject"] for r in rows if r["anchor"] != "Lemma 2.2"}
        assert len([s for s in moduli if s.startswith("T")]) == 9
        assert all(r["status"] == "pass" for r in rows)

    def test_all_anchors_registered(self, smoke):
        # smoke `all` emits every registered anchor, and only those
        cfg, tmp = smoke
        out = tmp / "anchor_check"
        assert run_cli("all", "--config", cfg, "--out", str(out)) == 0
        emitted = set()
        for name in (
            "enumerate.csv",
            "lfun.csv",
            "moments_checks.csv",
            "primesums_checks.csv",
        ):
            emitted |= {row["anchor"] for row in read_rows(out / name)}
        assert emitted == CHECK_ANCHORS

    def test_all_record_saves_once(self, tmp_path, monkeypatch):
        # one fixture file write per run, holding the keys of every command;
        # a verify run against it then passes, so every row met its fixture
        fixtures_path = tmp_path / "fixtures.json"
        cfg_dict = json.loads((CONFIGS / "smoke_q3_d2.json").read_text())
        cfg_dict["fixtures"] = str(fixtures_path)
        cfg = tmp_path / "smoke.json"
        cfg.write_text(json.dumps(cfg_dict))

        saves, looked_up = [], set()
        save, check = cli.save_fixtures, FixtureChecker.check

        def counting_save(fixtures, path):
            saves.append(sorted(fixtures))
            save(fixtures, path)

        def counting_check(checker, key, value, **tol):
            looked_up.add(key)
            return check(checker, key, value, **tol)

        monkeypatch.setattr(cli, "save_fixtures", counting_save)
        monkeypatch.setattr(FixtureChecker, "check", counting_check)
        out = str(tmp_path / "out")
        assert run_cli("all", "--config", str(cfg), "--out", out, "--record") == 0
        assert saves == [sorted(looked_up)]
        assert {key.split("/")[0] for key in looked_up} == {
            "lfun",
            "moments",
            "primesums",
        }
        assert sorted(json.loads(fixtures_path.read_text())) == saves[0]

        assert run_cli("all", "--config", str(cfg), "--out", out) == 0
        assert len(saves) == 1

    def test_unrecorded_fixture_fails_its_row(self, tmp_path):
        # the shipped fixtures less one key: exactly its row fails, with a
        # blank constant
        cfg_dict = json.loads((CONFIGS / "smoke_q3_d2.json").read_text())
        cfg_dict["fixtures"] = str(tmp_path / "fixtures.json")
        cfg = tmp_path / "smoke.json"
        cfg.write_text(json.dumps(cfg_dict))
        loaded = load_config(cfg)
        key = f"lfun/prop32_sup/{loaded.lfun_signature()}/{loaded.family_key(2)}"
        fixtures = load_fixtures()
        del fixtures[key]
        save_fixtures(fixtures, cfg_dict["fixtures"])
        out = tmp_path / "out"
        assert run_cli("lfun", "--config", str(cfg), "--out", str(out)) == 1
        failed = [r for r in read_rows(out / "lfun.csv") if r["status"] == "fail"]
        assert [(r["anchor"], r["subject"], r["constant"]) for r in failed] == [
            ("Prop 3.2", "q=3, d(Q)=2", "")
        ]

    def test_config_error_exit_two(self, smoke, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 1, "q": 3, "moduli": ["T + %"]}))
        code = run_cli("enumerate", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "position" in capsys.readouterr().err

    def test_missing_config_exit_two(self, tmp_path):
        code = run_cli(
            "enumerate",
            "--config",
            str(tmp_path / "missing.json"),
            "--out",
            str(tmp_path / "o"),
        )
        assert code == 2

    @pytest.mark.parametrize("name", ["cache", "tolerances", "out"])
    def test_cache_field_exit_two(self, tmp_path, capsys, name):
        # fields of earlier schemas: the output directory is --out alone and
        # the tolerances are fixed
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"schema": 1, "q": 3, "moduli": ["T^2"], name: {}}))
        code = run_cli("enumerate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "unknown fields" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, section, partial",
        [
            ("enumerate", "budget", {"max_enum": 729}),
            ("primesums", "primesums", {"qs": [3]}),
            ("moments", "perron", {"samples": 10}),
        ],
    )
    def test_partial_section_takes_defaults(self, smoke, command, section, partial):
        # the partial config meets the fixtures recorded under the full one
        cfg, tmp = smoke
        d = json.loads(Path(cfg).read_text())
        d["fixtures"] = str(tmp / "fixtures.json")
        reports = []
        for name, value in [
            ("full", {**SECTION_DEFAULTS[section], **partial}),
            ("partial", partial),
        ]:
            d[section] = value
            path, out = tmp / f"{name}.json", tmp / name
            path.write_text(json.dumps(d))
            if name == "full":
                record = ("--out", str(tmp / "record"), "--record")
                assert run_cli(command, "--config", str(path), *record) == 0
            assert run_cli(command, "--config", str(path), "--out", str(out)) == 0
            (out / "run_metadata.json").unlink()
            reports.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert reports[0] == reports[1]

    def test_out_of_range_section_exit_two(self, smoke, capsys):
        # a value that fails validation at load exits 2 and names its field
        cfg, tmp = smoke
        path = tmp / "bad.json"
        for section, name, bad in [("perron", "radius", 1.5), *OUT_OF_RANGE]:
            d = json.loads(Path(cfg).read_text())
            set_field(d, section, name, bad)
            path.write_text(json.dumps(d))
            code = run_cli("moments", "--config", str(path), "--out", str(tmp / "o"))
            assert code == 2
            field = f"{section}.{name}" if section else name
            assert f"{field} " in capsys.readouterr().err

    def test_least_section_values_run(self, smoke):
        # the least accepted values raise none of the errors inside the
        # computation; a quadrature this coarse may fail its Lemma 2.4 rows,
        # and nothing else, once its fixtures are recorded
        cfg, tmp = smoke
        d = json.loads(Path(cfg).read_text())
        d["perron"]["points_factor"] = 8
        d["primesums"].update(h_min=1, h_max=2, tail_h_max=1, alpha_points=1, f_h_max=1)
        d["fixtures"] = str(tmp / "fixtures.json")
        least = tmp / "least.json"
        least.write_text(json.dumps(d))
        out = tmp / "least"
        record = ("--out", str(tmp / "record"), "--record")
        assert run_cli("all", "--config", str(least), *record) in (0, 1)
        assert run_cli("primesums", "--config", str(least), "--out", str(out)) == 0
        assert run_cli("moments", "--config", str(least), "--out", str(out)) in (0, 1)
        rows = read_rows(out / "moments_checks.csv")
        assert {r["anchor"] for r in rows if r["status"] == "fail"} <= {"Lemma 2.4"}

    def test_coefficient_perturbation_fails_three_rows(self, smoke, monkeypatch):
        # 0.5 added to the top L-coefficient of the first primitive character
        # of the first modulus, T^2: exactly the rows that read that
        # coefficient fail, and T^2's one RH roots row names that character
        cfg, tmp = smoke
        families = []

        def perturbed(modulus):
            fam = primitive_family(modulus)
            if not families:
                coeffs = fam.coeffs.copy()
                coeffs[0, -1] += 0.5
                fam = dataclasses.replace(fam, coeffs=coeffs)
            families.append(fam)
            return fam

        monkeypatch.setattr(cli, "primitive_family", perturbed)
        out = tmp / "perturbed"
        assert run_cli("lfun", "--config", cfg, "--out", str(out)) == 1
        rows = read_rows(out / "lfun.csv")
        failed = [
            (r["anchor"], r["subject"], r["params"])
            for r in rows
            if r["status"] == "fail"
        ]
        assert failed == [
            ("RH roots", "T^2", "largest at chi#1"),
            ("conjugation", "T^2", "coeffs(conj chi) vs conj(coeffs)"),
            ("explicit formula", "T^2", "n=1..1, prime powers vs Newton power sums"),
        ]
        # 3 representatives and 2 witnesses, 5 rows each, 2 translation rows
        # and 3 family rows
        assert len(rows) == 30 and len(families) == 5
        assert sum(r["anchor"] == "RH roots" for r in rows) == 5

    def test_subcommands_take_four_options(self):
        # a new flag is a new option to test and document
        parser = build_parser()
        (sub,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert set(sub.choices) == {"enumerate", "lfun", "moments", "primesums", "all"}
        for p in sub.choices.values():
            flags = {flag for action in p._actions for flag in action.option_strings}
            assert flags == {"-h", "--help", "--config", "--out", "--record", "--jobs"}

    def test_budget_exceeded_exit_two(self, smoke, capsys):
        cfg, tmp = smoke
        d = json.loads(Path(cfg).read_text())
        d["budget"]["max_phi_total"] = 3
        small = tmp / "small_budget.json"
        small.write_text(json.dumps(d))
        code = run_cli("enumerate", "--config", str(small), "--out", str(tmp / "b"))
        assert code == 2
        assert "budget" in capsys.readouterr().err

    def test_moments_outputs(self, smoke):
        cfg, tmp = smoke
        out = tmp / "m"
        assert run_cli("moments", "--config", cfg, "--out", str(out)) == 0
        rows = read_rows(out / "moments.csv")
        assert len(rows) == 5 * 2  # 5 computed moduli x 2 shift specs
        payload = json.loads((out / "moments.json").read_text())
        assert len(payload) == len(rows)
        for row in rows:
            if int(row["n_primitive"]) > 0:
                assert float(row["ratio_zeta"]) > 0
                assert float(row["ratio_min"]) > 0

    def test_moments_rows_without_primitive_characters(self, tmp_path):
        cfg = str(CONFIGS / "lfun_q2_d3.json")
        assert run_cli("moments", "--config", cfg, "--out", str(tmp_path)) == 0
        rows = read_rows(tmp_path / "moments.csv")
        payload = json.loads((tmp_path / "moments.json").read_text())
        assert len(rows) == len(payload) == 18
        # T^2 + T, T^3 + T and T^3 + 1, two specs each: each has a simple
        # degree-1 factor; no witness comes from an orbit like theirs
        assert sum(row["n_primitive"] == "0" for row in rows) == 6
        for row, item in zip(rows, payload):
            if row["n_primitive"] == "0":
                assert row["lhs"] == "0.0" and item["lhs"] == 0.0
                assert row["ratio_zeta"] == row["ratio_min"] == ""
                assert item["ratio_zeta"] == item["ratio_min"] == ""
                continue
            for form in ("zeta", "min"):
                want = repr(float(row["lhs"]) / float(row[f"rhs_{form}"]))
                assert row[f"ratio_{form}"] == want
                assert repr(item[f"ratio_{form}"]) == want

    def test_jobs_capped_at_moduli(self, smoke, monkeypatch):
        sizes = []

        class SerialPool:
            """Records its size and maps in this process; starts no worker."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        # cli imports the pool from concurrent.futures only when it runs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg, tmp = smoke
        assert run_cli("moments", "--config", cfg, "--out", str(tmp), "--jobs", "64") == 0
        assert sizes == [5]  # the smoke config's computed moduli

    def test_import_leaves_out_multiprocessing(self):
        # a serial run never needs the process pool, so no run pays for
        # importing it unless --jobs asks for workers
        assert not imported_by_cli("multiprocessing")

    def test_import_leaves_out_openssl(self):
        # the signatures hash with the interpreter's built-in sha256: hashlib
        # would load OpenSSL's libcrypto, about 3.5 MB, into every process
        assert not imported_by_cli("_hashlib")

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
    def test_digests_match_hashlib(self, name):
        # fixture keys embed these digests, so they must stay hashlib's
        def sha(payload, length):
            blob = json.dumps(payload, sort_keys=True).encode()
            return hashlib.sha256(blob).hexdigest()[:length]

        cfg = load_config(CONFIGS / name)
        specs = cfg.resolved_shift_specs()
        digests = [sha(spec.to_dict(), 12) for spec in specs]
        assert [spec.digest for spec in specs] == digests
        lfun = {"x": cfg.x_exponents, "t": cfg.t_grid_points, "specs": digests}
        assert cfg.lfun_signature() == sha(lfun, 8)
        moments = {"specs": digests, "quad": cfg.quad_points}
        assert cfg.moments_signature() == sha(moments, 8)
        assert cfg.primesums_signature() == sha(cfg.primesums, 8)
        if cfg.moduli is not None:
            assert cfg.family_key(2) == f"q{cfg.q}_d2_{sha(cfg.moduli, 8)}"

    def test_peak_rss_reads_workers_only_with_jobs(self, monkeypatch):
        # ru_maxrss is in kB; the workers count once --jobs starts them
        kb = {cli.resource.RUSAGE_SELF: 2048, cli.resource.RUSAGE_CHILDREN: 5120}
        monkeypatch.setattr(
            cli.resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=kb[who])
        )
        assert cli._peak_rss_mb(1) == 2.0
        assert cli._peak_rss_mb(2) == 5.0
        kb[cli.resource.RUSAGE_CHILDREN] = 1024
        assert cli._peak_rss_mb(4) == 2.0

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, smoke, jobs, capsys):
        cfg, tmp = smoke
        with pytest.raises(SystemExit) as exc:
            run_cli("moments", "--config", cfg, "--out", str(tmp), "--jobs", jobs)
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_lfun_jobs_byte_identical(self, tmp_path):
        cfg = str(CONFIGS / "lfun_q2_d3.json")
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert run_cli("lfun", "--config", cfg, "--out", str(serial)) == 0
        assert (
            run_cli("lfun", "--config", cfg, "--out", str(parallel), "--jobs", "2")
            == 0
        )
        blob = (serial / "lfun.csv").read_bytes()
        assert blob == (parallel / "lfun.csv").read_bytes()
        rows = read_rows(serial / "lfun.csv")
        explicit = [r for r in rows if r["anchor"] == "explicit formula"]
        meta = json.loads((serial / "run_metadata.json").read_text())
        assert len(explicit) == meta["lfun"]["computed"] == 9
        assert meta["lfun"]["moduli"] == 12

    def test_family_rows_ordered_by_degree_then_anchor(self, smoke):
        # a config listing a degree-3 modulus first and its exponents in
        # reverse reports the family rows of its sorted twin, in the same
        # order; only its per-modulus rows follow the listed moduli
        cfg, tmp = smoke
        d = json.loads(Path(cfg).read_text())
        del d["family"]
        codes, checks = [], {}
        for name, moduli, exponents, ys in [
            ("listed", ["T^3 + 2*T + 1", "T^2 + 1", "T^2 + T + 2"], [3.0, 2.5], [2, 1]),
            ("sorted", ["T^2 + 1", "T^2 + T + 2", "T^3 + 2*T + 1"], [2.5, 3.0], [1, 2]),
        ]:
            d.update(moduli=moduli, moment_exponents=exponents, y_exponents=ys)
            path, out = tmp / f"{name}.json", tmp / name
            path.write_text(json.dumps(d))
            codes.append(run_cli("moments", "--config", str(path), "--out", str(out)))
            checks[name] = out / "moments_checks.csv"
        assert codes[0] == codes[1]
        listed, ordered = (read_rows(checks[name]) for name in ("listed", "sorted"))
        assert sorted(map(str, listed)) == sorted(map(str, ordered))
        family = [row for row in ordered if row["subject"].startswith("q=")]
        assert family == [row for row in listed if row["subject"].startswith("q=")]
        assert [row["subject"] for row in family] == ["q=3, d(Q)=2"] * 9 + [
            "q=3, d(Q)=3"
        ] * 9
        assert [(row["anchor"], row["params"]) for row in family[:9]] == [
            ("Thm 1.1 zeta", "family max"),
            ("Thm 1.1 min", "family max"),
            ("Prop 3.3", "family max"),
            ("Thm 1.3", "m=2.5, Y=q^1"),
            ("Thm 1.3", "m=2.5, Y=q^2"),
            ("Thm 1.3", "m=3.0, Y=q^1"),
            ("Thm 1.3", "m=3.0, Y=q^2"),
            ("Prop 4.1", "m=2.5"),
            ("Prop 4.1", "m=3.0"),
        ]

    def test_all_metadata_per_command(self, smoke):
        # `all` records, per family command, the moduli the config addresses,
        # their translation orbits and the moduli the command ran on, and
        # nothing for primesums: enumerate runs on every modulus, lfun and
        # moments on the 3 representatives and 2 witnesses
        cfg, tmp = smoke
        assert run_cli("all", "--config", cfg, "--out", str(tmp)) == 0
        meta = json.loads((tmp / "run_metadata.json").read_text())
        commands = ("enumerate", "lfun", "moments", "primesums")
        timing = {"command", "started", "elapsed_ms", "peak_rss_mb"}
        assert set(meta) == {*timing, *commands}
        assert meta["peak_rss_mb"] > 0
        assert {c: meta[c] for c in commands} == {
            "enumerate": {"moduli": 9, "orbits": 3, "computed": 9},
            "lfun": {"moduli": 9, "orbits": 3, "computed": 5},
            "moments": {"moduli": 9, "orbits": 3, "computed": 5},
            "primesums": {},
        }

    def test_moments_jobs_byte_identical(self, tmp_path):
        # moduli travel to the workers factored, so they must pickle
        cfg = str(CONFIGS / "smoke_q3_d2.json")
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert run_cli("moments", "--config", cfg, "--out", str(serial)) == 0
        assert (
            run_cli("moments", "--config", cfg, "--out", str(parallel), "--jobs", "2")
            == 0
        )
        for name in ("moments.csv", "moments.json", "moments_checks.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()
        assert len(read_rows(serial / "moments.csv")) == 5 * 2

    def test_moments_jobs_byte_identical_on_moments_q3(self, tmp_path):
        # |L| at the shifts and on the circle grid are BLAS products, which
        # run in the workers with --jobs; 130 families of degree 2..5 at q=3
        cfg = str(CONFIGS / "moments_q3.json")
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert run_cli("moments", "--config", cfg, "--out", str(serial)) == 0
        assert (
            run_cli("moments", "--config", cfg, "--out", str(parallel), "--jobs", "2")
            == 0
        )
        for name in ("moments.csv", "moments.json", "moments_checks.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()
        meta = json.loads((serial / "run_metadata.json").read_text())
        assert meta["moments"]["computed"] == 130

    def test_lfun_and_moments_build_no_value_matrix(self, smoke, monkeypatch):
        # no run path builds the dense character value matrix: every
        # L-coefficient and prime sum comes from character_sums, and
        # enumerate checks the dlog table the characters are read from, not
        # their values; enumerate and all are run as well as lfun and moments
        cfg, tmp = smoke
        plain, patched = tmp / "plain", tmp / "patched"
        commands = ("enumerate", "lfun", "moments", "all")

        def run(out):
            for command in commands:
                args = ("--config", cfg, "--out", str(out / command))
                assert run_cli(command, *args) == 0

        run(plain)

        def refuse(*args):
            raise AssertionError("dense character value matrix built")

        for name, module in list(sys.modules.items()):
            if name.startswith("ffmoments") and (
                getattr(module, "character_values", None) is character_values
            ):
                monkeypatch.setattr(module, "character_values", refuse)
        run(patched)
        names = [
            p.relative_to(plain)
            for p in sorted(plain.glob("*/*"))
            if p.name != "run_metadata.json"
        ]
        # enumerate 1, lfun 1, moments 3 and all 7 reports
        assert len(names) == 12
        for name in names:
            assert (plain / name).read_bytes() == (patched / name).read_bytes()

    def test_all_builds_no_character_objects(self, smoke, monkeypatch):
        # every command reads the characters of a family as its index and
        # exponent arrays; no DirichletChar is built, by all_characters or
        # otherwise
        cfg, tmp = smoke
        plain, patched = tmp / "plain", tmp / "patched"
        assert run_cli("all", "--config", cfg, "--out", str(plain)) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("DirichletChar built")

        for name, module in list(sys.modules.items()):
            if name.startswith("ffmoments") and (
                getattr(module, "all_characters", None) is all_characters
            ):
                monkeypatch.setattr(module, "all_characters", refuse)
        monkeypatch.setattr(DirichletChar, "__init__", refuse)
        assert run_cli("all", "--config", cfg, "--out", str(patched)) == 0
        names = sorted(p.name for p in plain.glob("*.csv")) + ["moments.json"]
        assert len(names) == 7
        for name in names:
            assert (plain / name).read_bytes() == (patched / name).read_bytes()

    def test_internal_error_exit_three(self, smoke, monkeypatch, capsys):
        cfg, tmp = smoke

        def broken(*args):
            raise RuntimeError("injected defect")

        monkeypatch.setattr(cli, "cmd_enumerate", broken)
        assert run_cli("enumerate", "--config", cfg, "--out", str(tmp / "e")) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: injected defect" in err

    def test_unit_group_check_can_fail(self):
        group = unit_group(factor_modulus(parse_poly(FieldSpec(3), "T^2 + 1")))
        assert group.orders == (8,)
        rows = enumerate_rows(3, "T^2 + 1")
        assert failing(rows) == {} and rows["plumbing/unit-group"].value == 0
        modulus, residues, dlog_mat = group.modulus, group.residues, group.dlog_mat
        # a generator of too small an order: dlog(r g^2) = dlog(r) + 2 for
        # each of the 8 units r
        g = group.generators
        square = scale_mod_many(3, modulus.poly.coeffs, g, g)
        fault = UnitGroup(modulus, square, group.orders, residues, dlog_mat)
        assert failing(enumerate_rows(3, "T^2 + 1", fault)) == {
            "plumbing/unit-group": 8
        }
        # orders that do not multiply to phi(Q); every dlog step is still 1
        # mod 4, so only the order term counts
        fault = UnitGroup(modulus, g, (4,), residues, dlog_mat)
        assert failing(enumerate_rows(3, "T^2 + 1", fault)) == {
            "plumbing/unit-group": 1
        }

    def test_ring_row_fails_on_perturbed_reduction_row(self, monkeypatch):
        # a wrong row T^d mod Q in the residue kernel's reduction fails the
        # ring row, which checks the kernel against long division
        reduction_rows = _backend.reduction_rows

        def perturbed(q, mod_digits, top):
            rows = reduction_rows(q, mod_digits, top).copy()
            d = rows.shape[-1]
            rows[..., d, 0] = (rows[..., d, 0] + 1) % q
            return rows

        def ring_row(fam):
            return {r.anchor: r for r in cli._enumerate_result(fam)}["plumbing/ring"]

        for q, text in ((3, "T^2 + 1"), (5, "T^3 + T")):
            fam = primitive_family(factor_modulus(parse_poly(FieldSpec(q), text)))
            row = ring_row(fam)
            assert row.value == 0 and row.passed
            _backend._product_rows.cache_clear()
            monkeypatch.setattr(_backend, "reduction_rows", perturbed)
            try:
                row = ring_row(fam)
            finally:
                monkeypatch.undo()
                _backend._product_rows.cache_clear()
            assert row.value > 0 and not row.passed, (q, text)

    def test_enumerate_checks_every_unit_of_a_large_prime(self, tmp_path):
        # phi = 511: the unit-group row checks every unit against the one
        # generator
        text = "T^9 + T^4 + 1"
        path = tmp_path / "prime9.json"
        budget = {"max_phi_total": 1000, "max_enum": 512}
        path.write_text(
            json.dumps({"schema": 1, "q": 2, "moduli": [text], "budget": budget})
        )
        out = tmp_path / "out"
        assert run_cli("enumerate", "--config", str(path), "--out", str(out)) == 0
        rows = {r["anchor"]: r for r in read_rows(out / "enumerate.csv")}
        assert rows["plumbing/unit-group"]["params"] == "orders=511"
        assert rows["plumbing/unit-group"]["value"] == "0"
        # a dlog column shifted by one keeps every step dlog(r g) - dlog(r),
        # so only dlog(1) != 0 fails the row
        group = unit_group(factor_modulus(parse_poly(FieldSpec(2), text)))
        shifted = with_dlog(group, (group.dlog_mat + 1) % group.orders[0])
        assert failing(enumerate_rows(2, text, shifted)) == {"plumbing/unit-group": 1}

    @pytest.mark.parametrize(
        "q, text, off_by_one", [(3, "T^2 + 1", 2), (5, "T^3 + T", 6)]
    )
    def test_unit_group_row_fails_on_dlog_faults(self, q, text, off_by_one):
        group = unit_group(factor_modulus(parse_poly(FieldSpec(q), text)))
        assert failing(enumerate_rows(q, text)) == {}
        # one exponent off by one: the unit u = residues[1] is wrong as r and
        # as r g_k, for each generator g_k
        dlog_mat = group.dlog_mat.copy()
        dlog_mat[1, 0] = (dlog_mat[1, 0] + 1) % group.orders[0]
        assert failing(enumerate_rows(q, text, with_dlog(group, dlog_mat))) == {
            "plumbing/unit-group": off_by_one
        }
        assert off_by_one == 2 * group.rank
        # the whole first column shifted by one: only the dlog(1) term sees it
        dlog_mat = group.dlog_mat.copy()
        dlog_mat[:, 0] = (dlog_mat[:, 0] + 1) % group.orders[0]
        assert failing(enumerate_rows(q, text, with_dlog(group, dlog_mat))) == {
            "plumbing/unit-group": 1
        }
        # a generator that is not a unit: no product r g_0 is in the table
        gens = group.generators.copy()
        gens[0] = 0
        modulus, residues = group.modulus, group.residues
        fault = UnitGroup(modulus, gens, group.orders, residues, group.dlog_mat)
        assert failing(enumerate_rows(q, text, fault)) == {
            "plumbing/unit-group": group.order
        }

    def test_enumerate_memory_is_linear_in_phi(self):
        # phi = 4095: the unit-group row holds a few arrays of phi integers
        # (2.2 MB peak); a value matrix of 256 characters alone takes 16 MB
        Q = parse_poly(FieldSpec(2), "T^12 + T^6 + T^4 + T + 1")
        fam = primitive_family(factor_modulus(Q))
        tracemalloc.start()
        try:
            rows = cli._enumerate_result(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fam.modulus.phi == 4095 and all(r.passed for r in rows)
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize(
        "path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.stem
    )
    def test_shipped_config_all_exits_zero(self, path, tmp_path):
        assert run_cli("all", "--config", str(path), "--out", str(tmp_path)) == 0

    def test_all_matches_single_commands(self, smoke):
        # `all` builds each family once, serially or in workers, and writes
        # the reports its four commands write when run one at a time
        cfg, tmp = smoke
        outs = {name: tmp / name for name in ("all", "jobs", "single")}
        assert run_cli("all", "--config", cfg, "--out", str(outs["all"])) == 0
        jobs = ("--out", str(outs["jobs"]), "--jobs", "2")
        assert run_cli("all", "--config", cfg, *jobs) == 0
        for command in ("enumerate", "lfun", "moments", "primesums"):
            assert run_cli(command, "--config", cfg, "--out", str(outs["single"])) == 0
        names = sorted(p.name for p in outs["all"].glob("*.csv")) + ["moments.json"]
        assert len(names) == 7
        for name in names:
            blob = (outs["all"] / name).read_bytes()
            assert blob == (outs["jobs"] / name).read_bytes()
            assert blob == (outs["single"] / name).read_bytes()

    def test_multiplicativity_check_can_fail(self):
        # two swapped dlog rows keep dlog(1) and the orders; the unit-group
        # row sees the two units wrong as r and as r g
        group = unit_group(factor_modulus(parse_poly(FieldSpec(3), "T^2 + 1")))
        dlog_mat = group.dlog_mat.copy()
        dlog_mat[[1, 2]] = dlog_mat[[2, 1]]
        rows = enumerate_rows(3, "T^2 + 1", with_dlog(group, dlog_mat))
        assert failing(rows) == {"plumbing/unit-group": 4}

    def test_conjugation_check_can_fail(self):
        cfg = load_config(CONFIGS / "smoke_q3_d2.json")
        specs = cfg.resolved_shift_specs()
        fam = primitive_family(factor_modulus(parse_poly(FieldSpec(3), "T^2 + 1")))

        def conjugation_row(fam):
            rows = cli._lfun_result(cfg, fam, specs, cfg.lfun_signature())["rows"]
            (row,) = [r for r in rows if r.anchor == "conjugation"]
            return row

        row = conjugation_row(fam)
        assert row.value < 1e-10 and row.passed
        # one row replaced by its own conjugate
        coeffs = fam.coeffs.copy()
        i = int(np.argmax(np.abs(coeffs[:, 1].imag)))
        coeffs[i] = np.conj(coeffs[i])
        row = conjugation_row(dataclasses.replace(fam, coeffs=coeffs))
        assert row.value > 1e-10 and not row.passed
        # a character whose conjugate is missing from the family
        dropped = dataclasses.replace(
            fam, index=fam.index[1:], exponents=fam.exponents[1:], coeffs=fam.coeffs[1:]
        )
        row = conjugation_row(dropped)
        assert row.value == math.inf and not row.passed

    def test_copied_conjugate_perturbation_fails_conjugation(self):
        # RH roots reads a conjugate pair at its lower row only; a perturbed
        # row of the copied conjugate still fails the conjugation row
        cfg = load_config(CONFIGS / "smoke_q3_d2.json")
        specs, signature = cfg.resolved_shift_specs(), cfg.lfun_signature()
        fam = primitive_family(factor_modulus(parse_poly(FieldSpec(3), "T^2 + 1")))
        conj_rows, copied = fam.copied_conjugates()
        assert copied.any() and not copied[conj_rows[copied]].any()
        coeffs = fam.coeffs.copy()
        coeffs[np.flatnonzero(copied)[0], -1] += 0.5
        perturbed = dataclasses.replace(fam, coeffs=coeffs)
        res = cli._lfun_result(cfg, perturbed, specs, signature)
        rows = {r.anchor: r for r in res["rows"]}
        assert rows["conjugation"].value > 0.4 and not rows["conjugation"].passed
        assert rows["RH roots"].passed

    def test_lfun_rows_without_primitive_characters(self):
        # T^2 + T at q=2 has no primitive characters: no RH-root rows,
        # nothing measured by the degree-bound, conjugation and explicit
        # formula rows (0.0), and Prop 3.1's slack left at inf
        cfg = load_config(CONFIGS / "lfun_q2_d3.json")
        fam = primitive_family(factor_modulus(parse_poly(FieldSpec(2), "T^2 + T")))
        assert fam.n_primitive == 0
        specs, signature = cfg.resolved_shift_specs(), cfg.lfun_signature()
        res = cli._lfun_result(cfg, fam, specs, signature)
        assert res["degree"] == 2
        assert res["family"] == []
        assert {r.subject for r in res["rows"]} == {"T^2 + T"}
        got = [(r.anchor, r.params, r.value, r.constant, r.passed) for r in res["rows"]]
        assert got == [
            ("degree bound", "probe degrees 2..4", 0.0, 1e-6, True),
            ("conjugation", "coeffs(conj chi) vs conj(coeffs)", 0.0, 1e-10, True),
            (
                "explicit formula",
                "n=1..3, prime powers vs Newton power sums",
                0.0,
                1e-8,
                True,
            ),
            ("Prop 3.1", "h=1, min slack over grid", math.inf, -1e-9, True),
        ]

    def test_timing_isolated_from_csv(self, smoke):
        cfg, tmp = smoke
        out = tmp / "t"
        assert run_cli("primesums", "--config", cfg, "--out", str(out)) == 0
        meta = json.loads((out / "run_metadata.json").read_text())
        assert "elapsed_ms" in meta
        header = (out / "primesums.csv").read_text().splitlines()[0]
        assert "time" not in header
