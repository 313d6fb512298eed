"""Configuration schema validation and CLI behavior (exit codes,
determinism, self-test)."""

import csv
import dataclasses
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ffmoments import cli
from ffmoments.anchors import CHECK_ANCHORS
from ffmoments.chargroup import (
    DirichletChar,
    UnitGroup,
    all_characters,
    character_values,
    factor_modulus,
    unit_group,
)
from ffmoments.cli import _unit_group_ok, main
from ffmoments.config import ConfigError, ExperimentConfig, load_config
from ffmoments.ffpoly import FieldSpec, parse_poly, pow_mod
from ffmoments.lfunc import primitive_family
from ffmoments.report import (
    MOMENT_COLUMNS,
    CheckRow,
    FixtureChecker,
    below,
    write_json_rows,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
        "tolerances": {
            "identity": 1e-8,
            "slack": 1e-9,
            "fixture_rel": 0.25,
            "fixture_abs": 1e-9,
            "coeff_zero": 1e-6,
            "root_mag": 1e-6,
            "orthogonality": 1e-9,
        },
        "budget": {"max_phi_total": 1000, "max_enum": 729},
        "fixtures": None,
        "out": None,
    }


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

    def test_tolerances_positive(self):
        d = full_config_dict()
        d["tolerances"]["slack"] = 0.0
        with pytest.raises(ConfigError, match="strictly positive"):
            ExperimentConfig.from_dict(d)

    def test_x_exponents_positive_integers(self):
        for bad in ([], [0], [1, -2], [1.5]):
            d = full_config_dict()
            d["x_exponents"] = bad
            with pytest.raises(ConfigError, match="x_exponents"):
                ExperimentConfig.from_dict(d)

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
            ("missing", 1.1, (True, "")),  # unrecorded: blank constant
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


def run_cli(*argv) -> int:
    return main(list(argv))


def replace_attrs(ns: SimpleNamespace, **changes) -> SimpleNamespace:
    return SimpleNamespace(**{**vars(ns), **changes})


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
        # smoke `all` plus the self-test emit every registered anchor, and
        # only those
        cfg, tmp = smoke
        out = tmp / "anchor_check"
        assert run_cli("all", "--config", cfg, "--out", str(out)) == 0
        selftest = tmp / "anchor_selftest"
        code = run_cli(
            "lfun", "--config", cfg, "--out", str(selftest), "--selftest-perturb"
        )
        assert code == 1
        emitted = {row["anchor"] for row in read_rows(selftest / "lfun.csv")}
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
        # a verify run against it then meets a recorded fixture on every row
        fixtures_path = tmp_path / "fixtures.json"
        cfg_dict = json.loads((CONFIGS / "smoke_q3_d2.json").read_text())
        cfg_dict["fixtures"] = str(fixtures_path)
        cfg = tmp_path / "smoke.json"
        cfg.write_text(json.dumps(cfg_dict))

        saves, looked_up, unrecorded = [], set(), []
        save, check = cli.save_fixtures, FixtureChecker.check

        def counting_save(fixtures, path):
            saves.append(sorted(fixtures))
            save(fixtures, path)

        def counting_check(checker, key, value, **tol):
            looked_up.add(key)
            if key not in checker.fixtures:
                unrecorded.append(key)
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

        unrecorded.clear()
        assert run_cli("all", "--config", str(cfg), "--out", out) == 0
        assert unrecorded == []
        assert len(saves) == 1

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

    def test_cache_field_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cache.json"
        cfg.write_text(json.dumps({"schema": 1, "q": 3, "moduli": ["T^2"], "cache": "c"}))
        code = run_cli("enumerate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "unknown fields" in capsys.readouterr().err

    def test_selftest_perturb_fails(self, smoke):
        cfg, tmp = smoke
        out = tmp / "selftest"
        code = run_cli(
            "lfun", "--config", cfg, "--out", str(out), "--selftest-perturb"
        )
        assert code == 1
        rows = read_rows(out / "lfun.csv")
        assert any(r["status"] == "fail" for r in rows)
        assert any(r["anchor"] == "plumbing/selftest" for r in rows)

    def test_budget_flag_overrides(self, smoke, capsys):
        cfg, tmp = smoke
        code = run_cli(
            "enumerate", "--config", cfg, "--out", str(tmp / "b"), "--budget", "3"
        )
        assert code == 2
        assert "budget" in capsys.readouterr().err

    def test_moments_outputs(self, smoke):
        cfg, tmp = smoke
        out = tmp / "m"
        assert run_cli("moments", "--config", cfg, "--out", str(out)) == 0
        rows = read_rows(out / "moments.csv")
        assert len(rows) == 9 * 2  # 9 moduli x 2 shift specs
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
        assert len(rows) == len(payload) == 24
        assert sum(row["n_primitive"] == "0" for row in rows) == 10
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

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        cfg, tmp = smoke
        assert run_cli("moments", "--config", cfg, "--out", str(tmp), "--jobs", "64") == 0
        assert sizes == [9]  # the smoke config's moduli

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
        assert len(explicit) == meta["lfun"]["moduli"] == 12

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
        assert len(read_rows(serial / "moments.csv")) == 9 * 2

    def test_lfun_and_moments_build_no_value_matrix(self, smoke, monkeypatch):
        # only the enumerate checks read the dense character value matrix;
        # every L-coefficient and prime sum comes from character_sums
        cfg, tmp = smoke
        plain, patched = tmp / "plain", tmp / "patched"
        for command in ("lfun", "moments"):
            assert run_cli(command, "--config", cfg, "--out", str(plain)) == 0

        def refuse(*args):
            raise AssertionError("dense character value matrix built")

        for name, module in list(sys.modules.items()):
            if name.startswith("ffmoments") and (
                getattr(module, "character_values", None) is character_values
            ):
                monkeypatch.setattr(module, "character_values", refuse)
        for command in ("lfun", "moments"):
            assert run_cli(command, "--config", cfg, "--out", str(patched)) == 0
        names = sorted(p.name for p in plain.glob("*.csv")) + ["moments.json"]
        assert len(names) == 4
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
        F3 = FieldSpec(3)
        group = unit_group(factor_modulus(parse_poly(F3, "T^2 + 1")))
        assert group.orders == (8,)
        assert _unit_group_ok(group)
        fake = SimpleNamespace(
            modulus=group.modulus, generators=group.generators, orders=group.orders
        )
        assert _unit_group_ok(fake)
        # a generator of too small an order
        g = group.generators[0]
        square = pow_mod(g, 2, group.modulus.poly)
        assert not _unit_group_ok(replace_attrs(fake, generators=(square,)))
        # orders that do not multiply to phi(Q)
        assert not _unit_group_ok(replace_attrs(fake, orders=(4,)))

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
        # two swapped dlog rows keep every column sum, so only the
        # multiplicativity spot check sees them
        fam = primitive_family(factor_modulus(parse_poly(FieldSpec(3), "T^2 + 1")))
        assert cli._enumerate_result(fam)["mult_err"] < 1e-12
        g = fam.group
        dlog_mat = g.dlog_mat.copy()
        dlog_mat[[1, 2]] = dlog_mat[[2, 1]]
        swapped = UnitGroup(g.modulus, g.generators, g.orders, g.residues, dlog_mat)
        res = cli._enumerate_result(dataclasses.replace(fam, group=swapped))
        assert res["mult_err"] > 1e-12
        assert res["ortho_max"] < 1e-9

    def test_conjugation_check_can_fail(self):
        cfg = load_config(CONFIGS / "smoke_q3_d2.json")
        specs = cfg.resolved_shift_specs()
        fam = primitive_family(factor_modulus(parse_poly(FieldSpec(3), "T^2 + 1")))
        assert cli._lfun_result(cfg, fam, specs, False)["conj_max"] < 1e-10
        # one row replaced by its own conjugate
        coeffs = fam.coeffs.copy()
        row = int(np.argmax(np.abs(coeffs[:, 1].imag)))
        coeffs[row] = np.conj(coeffs[row])
        tampered = dataclasses.replace(fam, coeffs=coeffs)
        assert cli._lfun_result(cfg, tampered, specs, False)["conj_max"] > 1e-10
        # a character whose conjugate is missing from the family
        dropped = dataclasses.replace(
            fam, index=fam.index[1:], exponents=fam.exponents[1:], coeffs=fam.coeffs[1:]
        )
        assert cli._lfun_result(cfg, dropped, specs, False)["conj_max"] == math.inf

    def test_timing_isolated_from_csv(self, smoke):
        cfg, tmp = smoke
        out = tmp / "t"
        assert run_cli("primesums", "--config", cfg, "--out", str(out)) == 0
        meta = json.loads((out / "run_metadata.json").read_text())
        assert "elapsed_ms" in meta
        header = (out / "primesums.csv").read_text().splitlines()[0]
        assert "time" not in header
