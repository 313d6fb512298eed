"""Experiment configuration: a versioned JSON schema with strict validation.

Unknown fields are rejected so that a typo cannot silently disable a check;
parse-validate of a fully specified document round-trips to the identity.
Family generators are capped by an explicit budget so a config cannot
silently request days of compute.

Regression-fixture keys embed a signature of the sweep definition they were
recorded under, so a constant recorded for one grid is never compared
against a run with a different grid.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, fields
from pathlib import Path

from ffmoments.chargroup import Modulus, factor_modulus
from ffmoments.ffpoly import FieldSpec, PolyParseError, monic_from_index, parse_poly
from ffmoments.lfunc import t_period
from ffmoments.moments import ShiftSpec

CONFIG_SCHEMA = 1


class ConfigError(ValueError):
    """Raised on malformed or invalid experiment configuration."""


def _require_keys(d: dict, allowed: set[str], where: str):
    extra = set(d) - allowed
    if extra:
        raise ConfigError(f"unknown fields in {where}: {sorted(extra)}")


DEFAULT_TOLERANCES = {
    "identity": 1e-8,
    "slack": 1e-9,
    "fixture_rel": 0.25,
    "fixture_abs": 1e-9,
    "coeff_zero": 1e-6,
    "root_mag": 1e-6,
    "orthogonality": 1e-9,
}

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
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    budget: dict = field(default_factory=lambda: dict(DEFAULT_BUDGET))
    fixtures: str | None = None
    out: str | None = None

    # -- serialization -------------------------------------------------

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("configuration must be a JSON object")
        _require_keys(d, {f.name for f in fields(cls)}, "config")
        if d.get("schema") != CONFIG_SCHEMA:
            raise ConfigError(
                f'config must declare "schema": {CONFIG_SCHEMA}, got {d.get("schema")!r}'
            )
        cfg = cls(**{k: d[k] for k in d})
        cfg.validate()
        return cfg

    # -- validation ------------------------------------------------------

    def validate(self):
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
        if self.moduli is not None and not all(
            isinstance(s, str) for s in self.moduli
        ):
            raise ConfigError("moduli must be polynomial strings")
        if self.family is None and self.moduli is None:
            raise ConfigError("either a family range or explicit moduli is required")
        if isinstance(self.shift_specs, dict):
            _require_keys(
                self.shift_specs, {"random"}, "config.shift_specs"
            )
            _require_keys(
                self.shift_specs["random"],
                {"count", "half_k", "a_min", "a_max", "seed"},
                "config.shift_specs.random",
            )
        elif self.shift_specs is not None:
            for i, d in enumerate(self.shift_specs):
                try:
                    ShiftSpec.from_dict(d)
                except (ValueError, KeyError) as e:
                    raise ConfigError(f"shift spec {i}: {e}") from None
        _require_keys(self.tolerances, set(DEFAULT_TOLERANCES), "config.tolerances")
        for name, value in self.tolerances.items():
            if not (isinstance(value, (int, float)) and value > 0):
                raise ConfigError(f"tolerance {name} must be strictly positive")
        _require_keys(self.budget, set(DEFAULT_BUDGET), "config.budget")
        _require_keys(self.primesums, set(DEFAULT_PRIMESUMS), "config.primesums")
        _require_keys(self.perron, set(DEFAULT_PERRON), "config.perron")
        if self.t_grid_points < 1:
            raise ConfigError("t_grid_points must be positive")
        if not self.x_exponents or not all(
            isinstance(h, int) and h >= 1 for h in self.x_exponents
        ):
            raise ConfigError("x_exponents must be a nonempty list of positive integers")
        if self.quad_points < 256:
            raise ConfigError("quad_points must be at least 256")

    # -- derived quantities ------------------------------------------------

    def tolerance(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

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
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:8]

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

    def resolved_shift_specs(self) -> list[ShiftSpec]:
        """Explicit shift specs, expanding the seeded random generator form."""
        if self.shift_specs is None:
            return [ShiftSpec(a=(1.0, 1.0), t=(0.0, 0.0))]
        if isinstance(self.shift_specs, dict):
            params = self.shift_specs["random"]
            rng = random.Random(params.get("seed", 0))
            count = params.get("count", 20)
            half_k = params.get("half_k", 2)
            a_min = params.get("a_min", 0.5)
            a_max = params.get("a_max", 2.0)
            period = t_period(self.q)
            out = []
            for _ in range(count):
                a = tuple(rng.uniform(a_min, a_max) for _ in range(2 * half_k))
                t = tuple(rng.uniform(0.0, period) for _ in range(2 * half_k))
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
