"""Report rows, deterministic CSV/JSON emission, and regression fixtures.

Check rows carry a stable anchor from the committed registry, the measured
value, and the recorded regression constant they were compared against.
CSV output is byte-deterministic: rows are emitted in canonical order and
cells are written as their values, Python floats, ints and strings, which
the csv module renders by repr for floats (shortest round-trip form).  Only
a check's status is formatted.  Wall-clock data goes to a separate metadata
JSON so report files stay rerun-identical.
"""

from __future__ import annotations

import csv
import importlib.resources
import json
import math
from dataclasses import dataclass
from pathlib import Path

from ffmoments.anchors import CHECK_ANCHORS


@dataclass
class CheckRow:
    anchor: str
    subject: str
    params: str
    value: float | int | str
    constant: float | str
    passed: bool

    def __post_init__(self):
        if self.anchor not in CHECK_ANCHORS:
            raise ValueError(f"unregistered check anchor: {self.anchor!r}")


def below(anchor: str, subject: str, params: str, value, bound) -> CheckRow:
    """A row that passes when value < bound; equality and NaN fail."""
    return CheckRow(anchor, subject, params, value, bound, value < bound)


CHECK_COLUMNS = ["anchor", "subject", "params", "value", "constant", "status"]

MOMENT_COLUMNS = [
    "q",
    "modulus",
    "degree",
    "phi",
    "n_primitive",
    "orbit",
    "spec",
    "lhs",
    "rhs_zeta",
    "rhs_min",
    "ratio_zeta",
    "ratio_min",
    "flag_small_logq",
]

PRIMESUM_COLUMNS = [
    "q",
    "h",
    "alpha",
    "sum",
    "estimate1",
    "estimate2",
    "defect1",
    "defect2",
]


def write_check_csv(path: Path, rows: list[CheckRow]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CHECK_COLUMNS)
        for r in rows:
            cells = [r.anchor, r.subject, r.params, r.value, r.constant]
            writer.writerow(cells + ["pass" if r.passed else "fail"])


def write_table_csv(path: Path, columns: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


# a flat object in the layout of json.dumps(..., sort_keys=True, indent=1)
# one level down, once wrapped in "{\n  " and "\n }"; without indent the C
# encoder runs
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n  ", ": "))


def write_json_rows(path: Path, columns: list[str], rows: list[list]) -> None:
    """The rows as a JSON list of objects keyed by column, byte for byte
    json.dumps(payload, sort_keys=True, indent=1), each row encoded and
    written alone, so no copy of the whole document is ever held."""
    path.parent.mkdir(parents=True, exist_ok=True)
    encode = _ROW_ENCODER.encode
    with path.open("w") as fh:
        fh.write("[")
        for i, row in enumerate(rows):
            item = encode(dict(zip(columns, row)))
            fh.write((",\n {\n  " if i else "\n {\n  ") + item[1:-1] + "\n }")
        fh.write("\n]" if rows else "]")


# ---------------------------------------------------------------------------
# Regression fixtures
# ---------------------------------------------------------------------------


def default_fixture_path() -> Path:
    return Path(
        importlib.resources.files("ffmoments") / "fixtures" / "regression.json"
    )


def load_fixtures(path: Path | None = None) -> dict[str, float]:
    p = Path(path) if path is not None else default_fixture_path()
    if not p.exists():
        return {}
    return json.loads(p.read_text())


def save_fixtures(fixtures: dict[str, float], path: Path | None = None) -> None:
    p = Path(path) if path is not None else default_fixture_path()
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(fixtures, sort_keys=True, indent=1) + "\n")


class FixtureChecker:
    """Compare measured sweep constants against the committed fixtures.

    In record mode every checked key is overwritten with the measured value
    and the row passes; in verify mode a key must be recorded and satisfy
    |value - recorded| <= abs_tol + rel_tol |recorded|, each tolerance 0 by
    default, and a missing key fails with a blank constant.
    """

    def __init__(self, fixtures: dict[str, float], record: bool):
        self.fixtures = dict(fixtures)
        self.record = record
        self.updated = False

    def check(
        self,
        key: str,
        value: float,
        rel_tol: float = 0.0,
        abs_tol: float = 0.0,
    ) -> tuple[bool, float | str]:
        if self.record and math.isfinite(value):
            self.fixtures[key] = value
            self.updated = True
            return True, value
        if key not in self.fixtures or not math.isfinite(value):
            return False, self.fixtures.get(key, "")
        recorded = self.fixtures[key]
        return abs(value - recorded) <= abs_tol + rel_tol * abs(recorded), recorded

    def row(self, anchor, subject, params, key, value, **tol) -> CheckRow:
        """The row comparing ``value`` with fixture ``key`` (see ``check``)."""
        ok, recorded = self.check(key, value, **tol)
        return CheckRow(anchor, subject, params, value, recorded, ok)
