"""Experiment configuration: a versioned JSON schema with strict validation.

Unknown fields are rejected so that a typo cannot silently disable a check;
parse-validate of a fully specified document round-trips to the identity.
The perron, primesums and budget sections and the shift_specs.random
generator may name only some of their fields; each is merged over its
defaults once, at load, and every value is type- and range-checked there.
Family generators are capped by an explicit budget so a config cannot
silently request days of compute.

Regression-fixture keys embed a signature of the sweep definition they were
recorded under, so a constant recorded for one grid is never compared
against a run with a different grid, nor one family of moduli with another.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields
from pathlib import Path

from ffmoments.chargroup import Modulus, factor_modulus
from ffmoments.ffpoly import (
    FieldSpec,
    PolyParseError,
    _is_prime_int,
    monic_from_index,
    parse_poly,
)
from ffmoments.lfunc import t_period
from ffmoments.moments import ShiftSpec, sha256_hex

CONFIG_SCHEMA = 1


class ConfigError(ValueError):
    """Raised on malformed or invalid experiment configuration."""


def _is_int(value, least=None) -> bool:
    """value is an integer, and at least ``least`` when that is given."""
    return isinstance(value, int) and (least is None or value >= least)


def _require_keys(d: dict, allowed: set[str], where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    extra = set(d) - allowed
    if extra:
        raise ConfigError(f"unknown fields in {where}: {sorted(extra)}")


DEFAULT_BUDGET = {"max_phi_total": 200_000, "max_enum": 1_000_000}

DEFAULT_PRIMESUMS = {
    "qs": [2, 3, 5],
    "h_min": 2,
    "h_max": 12,
    "alpha_points": 64,
    "tail_h_max": 10,
    "f_h_max": 10_000,
}

DEFAULT_PERRON = {"samples": 50, "radius": 0.5, "points_factor": 64, "seed": 1}

DEFAULT_RANDOM_SPECS = {"count": 20, "half_k": 2, "a_min": 0.5, "a_max": 2.0, "seed": 0}

# the sections a config may name in part: each merges over its defaults
SECTION_DEFAULTS = {
    "perron": DEFAULT_PERRON,
    "primesums": DEFAULT_PRIMESUMS,
    "budget": DEFAULT_BUDGET,
}


@dataclass
class ExperimentConfig:
    schema: int = CONFIG_SCHEMA
    q: int = 3
    family: dict | None = None  # {"min_degree": .., "max_degree": ..}
    moduli: list[str] | None = None
    shift_specs: list[dict] | dict | None = None
    moment_exponents: list[float] = field(default_factory=lambda: [2.5, 3.0])
    y_exponents: list[int] = field(default_factory=lambda: [2, 3])
    x_exponents: list[int] = field(default_factory=lambda: [1, 2])
    t_grid_points: int = 32
    quad_points: int = 1024
    perron: dict = field(default_factory=lambda: dict(DEFAULT_PERRON))
    primesums: dict = field(default_factory=lambda: dict(DEFAULT_PRIMESUMS))
    budget: dict = field(default_factory=lambda: dict(DEFAULT_BUDGET))
    fixtures: str | None = None

    # -- serialization -------------------------------------------------

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _require_keys(d, {f.name for f in fields(cls)}, "config")
        if d.get("schema") != CONFIG_SCHEMA:
            raise ConfigError(
                f'config must declare "schema": {CONFIG_SCHEMA}, got {d.get("schema")!r}'
            )
        sections = {}
        for name, default in SECTION_DEFAULTS.items():
            given = d.get(name, {})
            _require_keys(given, set(default), f"config.{name}")
            sections[name] = {**default, **given}
        specs = d.get("shift_specs")
        if isinstance(specs, dict):
            _require_keys(specs, {"random"}, "config.shift_specs")
            if "random" not in specs:
                raise ConfigError("shift_specs must hold random")
            given = specs["random"]
            where = "config.shift_specs.random"
            _require_keys(given, set(DEFAULT_RANDOM_SPECS), where)
            sections["shift_specs"] = {"random": {**DEFAULT_RANDOM_SPECS, **given}}
        cfg = cls(**{**d, **sections})
        cfg.validate()
        return cfg

    # -- validation ------------------------------------------------------

    def validate(self):
        if not _is_int(self.q):
            raise ConfigError("q must be an integer")
        try:
            FieldSpec(self.q)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if self.family is not None:
            _require_keys(
                self.family, {"min_degree", "max_degree"}, "config.family"
            )
            lo, hi = self.family.get("min_degree"), self.family.get("max_degree")
            if not (isinstance(lo, int) and isinstance(hi, int) and 2 <= lo <= hi):
                raise ConfigError("family degrees must be integers with 2 <= min <= max")
        moduli = self.moduli
        if moduli is not None and not (
            isinstance(moduli, list) and all(isinstance(s, str) for s in moduli)
        ):
            raise ConfigError("moduli must be a list of polynomial strings")
        if self.family is None and self.moduli is None:
            raise ConfigError("either a family range or explicit moduli is required")
        if isinstance(self.shift_specs, dict):
            r = self.shift_specs["random"]
            for name in ("count", "half_k"):
                if not _is_int(r[name], 1):
                    raise ConfigError(
                        f"shift_specs.random.{name} must be a positive integer"
                    )
            a_min, a_max = r["a_min"], r["a_max"]
            numbers = all(isinstance(a, (int, float)) for a in (a_min, a_max))
            if not (numbers and 0 < a_min <= a_max):
                raise ConfigError(
                    "shift_specs.random.a_min and a_max must satisfy 0 < a_min <= a_max"
                )
            if not _is_int(r["seed"]):
                raise ConfigError("shift_specs.random.seed must be an integer")
        elif self.shift_specs is not None:
            if not isinstance(self.shift_specs, list):
                raise ConfigError("shift_specs must be an object or a list")
            for i, d in enumerate(self.shift_specs):
                try:
                    ShiftSpec.from_dict(d)
                except (ValueError, KeyError) as e:
                    raise ConfigError(f"shift spec {i}: {e}") from None
        if not _is_int(self.t_grid_points, 1):
            raise ConfigError("t_grid_points must be an integer >= 1")
        if not (
            isinstance(self.x_exponents, list)
            and self.x_exponents
            and all(_is_int(h, 1) for h in self.x_exponents)
        ):
            raise ConfigError("x_exponents must be a nonempty list of positive integers")
        if not _is_int(self.quad_points, 256):
            raise ConfigError("quad_points must be an integer >= 256")
        exponents = self.moment_exponents
        if not (
            isinstance(exponents, list)
            and all(isinstance(m, (int, float)) and m >= 0 for m in exponents)
        ):
            raise ConfigError("moment_exponents must be a list of numbers >= 0")
        if not (
            isinstance(self.y_exponents, list)
            and all(_is_int(y, 0) for y in self.y_exponents)
        ):
            raise ConfigError("y_exponents must be a list of integers >= 0")
        radius, factor = self.perron["radius"], self.perron["points_factor"]
        if not (isinstance(radius, (int, float)) and 0 < radius < 1):
            raise ConfigError("perron.radius must lie in (0, 1)")
        # the Perron quadrature needs M = factor (N + deg Q) >= 4 (deg Q + N + 2)
        # samples for every N >= 0 and deg Q >= 2
        if not _is_int(factor, 8):
            raise ConfigError("perron.points_factor must be an integer >= 8")
        if not _is_int(self.perron["samples"], 1):
            raise ConfigError("perron.samples must be an integer >= 1")
        if not _is_int(self.perron["seed"]):
            raise ConfigError("perron.seed must be an integer")
        ps = self.primesums
        if not (
            isinstance(ps["qs"], list)
            and ps["qs"]
            and all(isinstance(q, int) and _is_prime_int(q) for q in ps["qs"])
        ):
            raise ConfigError("primesums.qs must be a nonempty list of primes")
        for name in ("h_min", "tail_h_max", "alpha_points", "f_h_max"):
            if not _is_int(ps[name], 1):
                raise ConfigError(f"primesums.{name} must be a positive integer")
        # the Lemma 2.3 slice row compares h_max with h_max // 2 >= h_min
        if not _is_int(ps["h_max"], 2 * ps["h_min"]):
            raise ConfigError("primesums.h_max must be an integer >= 2 * h_min")
        for name, value in self.budget.items():
            if not _is_int(value, 1):
                raise ConfigError(f"budget.{name} must be a positive integer")

    # -- derived quantities ------------------------------------------------

    def modulus_list(self) -> list[Modulus]:
        """The moduli this config addresses, in deterministic order, with the
        compute budget enforced."""
        f = FieldSpec(self.q)
        polys = []
        if self.moduli is not None:
            for s in self.moduli:
                try:
                    polys.append(parse_poly(f, s))
                except PolyParseError as e:
                    raise ConfigError(f"modulus {s!r}: {e}") from None
        else:
            lo, hi = self.family["min_degree"], self.family["max_degree"]
            for n in range(lo, hi + 1):
                if self.q ** max(n - 1, 0) > self.budget["max_enum"]:
                    raise ConfigError(
                        f"family degree {n} exceeds the enumeration budget"
                    )
                polys.extend(
                    monic_from_index(f, n, i) for i in range(self.q**n)
                )
        out = []
        phi_total = 0
        for poly in polys:
            if not poly.is_monic or poly.degree < 2:
                raise ConfigError(
                    f"modulus {poly} must be monic of degree >= 2"
                )
            m = factor_modulus(poly)
            phi_total += m.phi
            out.append(m)
        if phi_total > self.budget["max_phi_total"]:
            raise ConfigError(
                f"family totient budget exceeded: {phi_total} > "
                f"{self.budget['max_phi_total']}"
            )
        return out

    @staticmethod
    def _signature(payload) -> str:
        return sha256_hex(json.dumps(payload, sort_keys=True), 8)

    def lfun_signature(self) -> str:
        """Signature of everything the log-L defect sweeps depend on."""
        return self._signature(
            {
                "x": self.x_exponents,
                "t": self.t_grid_points,
                "specs": [s.digest for s in self.resolved_shift_specs()],
            }
        )

    def moments_signature(self) -> str:
        """Signature of everything the moment-ratio sweeps depend on."""
        return self._signature(
            {
                "specs": [s.digest for s in self.resolved_shift_specs()],
                "quad": self.quad_points,
            }
        )

    def primesums_signature(self) -> str:
        return self._signature(self.primesums)

    def family_key(self, degree: int) -> str:
        """q{q}_d{degree} in the family fixture keys, then, with explicit
        moduli, a signature of their list: another family's maxima differ."""
        listed = "" if self.moduli is None else f"_{self._signature(self.moduli)}"
        return f"q{self.q}_d{degree}{listed}"

    def resolved_shift_specs(self) -> list[ShiftSpec]:
        """Explicit shift specs, expanding the seeded random generator form."""
        if self.shift_specs is None:
            return [ShiftSpec(a=(1.0, 1.0), t=(0.0, 0.0))]
        if isinstance(self.shift_specs, dict):
            r = self.shift_specs["random"]
            rng = random.Random(r["seed"])
            period = t_period(self.q)
            out = []
            size = 2 * r["half_k"]
            for _ in range(r["count"]):
                a = tuple(rng.uniform(r["a_min"], r["a_max"]) for _ in range(size))
                t = tuple(rng.uniform(0.0, period) for _ in range(size))
                out.append(ShiftSpec(a=a, t=t))
            return out
        return [ShiftSpec.from_dict(d) for d in self.shift_specs]


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON in {path}: {e}") from None
    return ExperimentConfig.from_dict(raw)
