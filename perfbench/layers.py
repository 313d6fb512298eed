"""Per-layer tracing of one ffmoments process, installed from outside the package.

Each layer is a set of public functions of one package module. A spanned
layer records one span per call (layer, parent span, start and end in
perf_counter_ns); a counted layer only counts calls, because its functions
are called millions of times and a span each would swamp the run. Wrappers
replace the function in every ffmoments module namespace that imported it,
and on the class for methods. Spans stay in memory until ``Tracer.dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np


def _sieve_marks(args, kwargs, result) -> int:
    """Composite marks the sieve made: every irreducible of degree d <= n/2
    times every monic cofactor of degree n - d, for each degree n built."""
    q = args[0]
    return sum(
        len(result[d]) * q ** (n - d)
        for n in range(2, len(result))
        for d in range(1, n // 2 + 1)
    )


# layer -> (module, public functions it spans, optional (counter, unit, measure)).
SPANNED = {
    "lfunc.log_bounds": (
        "lfunc",
        ["log_l_bound_pointwise", "log_l_bound_simplified", "shifted_log_bound"],
        None,
    ),
    "lfunc.probe": ("lfunc", ["l_coefficient_probe"], None),
    "lfunc.inverse_roots": ("lfunc", ["LPolynomial.inverse_roots"], None),
    "lfunc.l_coefficients": ("lfunc", ["l_coefficients"], None),
    "chargroup.factor": ("chargroup", ["factor_modulus"], None),
    "chargroup.unit_group": ("chargroup", ["unit_group"], None),
    "chargroup.verify_bijection": ("chargroup", ["UnitGroup.verify_bijection"], None),
    "chargroup.characters": ("chargroup", ["all_characters"], None),
    "chargroup.character_values": ("chargroup", ["character_values"], None),
    "backend.scale": (
        "_backend",
        ["scale_mod_many"],
        ("backend.scale_rows", "count", lambda args, kwargs, result: len(args[2])),
    ),
    "backend.sieve": (
        "_backend",
        ["irreducible_indices"],
        ("backend.sieve_marks", "count", _sieve_marks),
    ),
    "ffpoly.sieve": ("ffpoly", ["irreducible_count_enumerated"], None),
    "moments.moment_report": ("moments", ["moment_report"], None),
    "moments.prop33": ("moments", ["prop33_statistic"], None),
    "moments.perron": ("moments", ["perron_partial_sum", "perron_aliasing_bound"], None),
    "moments.charsum": ("moments", ["charsum_moment"], None),
    "moments.integral": ("moments", ["integral_moment"], None),
    "primesums.total": (
        "primesums",
        [
            "logp_sum",
            "recip_sum",
            "mertens_grid_sweep",
            "prime_power_tail",
            "tail_remainder_bound",
            "fsum_defect_sup",
        ],
        None,
    ),
    "report.write": (
        "report",
        ["write_check_csv", "write_table_csv", "write_json_rows"],
        (
            "report.bytes_written",
            "bytes",
            lambda args, kwargs, result: Path(args[0]).stat().st_size,
        ),
    ),
    "config.load": ("config", ["load_config"], None),
    "config.modulus_list": ("config", ["ExperimentConfig.modulus_list"], None),
}

# layer -> (module, hot public function it counts calls of).
COUNTED = {
    "chargroup.char_eval": ("chargroup", "char_eval"),
    "ffpoly.divmod": ("ffpoly", "poly_divmod"),
    "ffpoly.gcd": ("ffpoly", "poly_gcd"),
    "ffpoly.enumerate_irreducible": ("ffpoly", "enumerate_irreducible"),
    "lfunc.log_abs_l": ("lfunc", "log_abs_l"),
}

# per-layer metric -> spanned layer whose call count it reports.
SPAN_CALLS = {
    "lfunc.log_bounds_calls": "lfunc.log_bounds",
    "chargroup.unit_group_calls": "chargroup.unit_group",
    "ffpoly.sieve_builds": "backend.sieve",
}


class Tracer:
    """Span and counter store for one process."""

    def __init__(self):
        self.layers: list[str] = []
        self.layer_id = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def _spanned(self, fn, layer: int, quantity):
        tr = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tr.start)
            tr.layer_id.append(layer)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.end.append(0)
            tr.stack.append(idx)
            tr.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = clock()
                tr.stack.pop()
            if quantity is not None:
                name, _, measure = quantity
                tr.counters[name] += measure(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, name: str):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every layer function of the already imported package."""
        for layer, (module, names, quantity) in SPANNED.items():
            layer_id = len(self.layers)
            self.layers.append(layer)
            if quantity is not None:
                self.counters[quantity[0]] = 0
            for name in names:
                _patch(module, name, lambda fn: self._spanned(fn, layer_id, quantity))
        for layer, (module, name) in COUNTED.items():
            self.counters[layer + "_calls"] = 0
            _patch(module, name, lambda fn, c=layer + "_calls": self._counted(fn, c))

    def dump(self, path: Path, main_s: float) -> None:
        """Write the spans, counters and the traced main() wall time."""
        np.savez(
            path,
            layer_id=np.frombuffer(self.layer_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            meta=np.array(
                json.dumps(
                    {"layers": self.layers, "counters": self.counters, "main_s": main_s}
                )
            ),
        )


def _patch(module: str, name: str, make_wrapper) -> None:
    mod = importlib.import_module(f"ffmoments.{module}")
    if "." in name:
        cls_name, attr = name.split(".")
        cls = getattr(mod, cls_name)
        setattr(cls, attr, make_wrapper(getattr(cls, attr)))
        return
    original = getattr(mod, name)
    wrapper = make_wrapper(original)
    for other in list(sys.modules.values()):
        if getattr(other, "__name__", "").startswith("ffmoments"):
            for attr, value in list(vars(other).items()):
                if value is original:
                    setattr(other, attr, wrapper)


def summarize(paths: list[Path]) -> tuple[dict, float, float]:
    """Per-layer metrics of one workload run, summed over its span files,
    with the total top-level span time and traced main() wall time.

    A spanned layer reports its self time as ``<layer>_s``; a counted layer
    its calls as ``<layer>_calls``."""
    self_s = dict.fromkeys(SPANNED, 0.0)
    calls = dict.fromkeys(SPANNED, 0)
    counters: dict[str, int] = {}
    top_s = main_s = 0.0
    for path in paths:
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            dur = (data["end"] - data["start"]).astype(np.float64) * 1e-9
            parent = data["parent"]
            layer_id = data["layer_id"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = np.bincount(layer_id, weights=dur - child, minlength=len(meta["layers"]))
        n_calls = np.bincount(layer_id, minlength=len(meta["layers"]))
        for i, layer in enumerate(meta["layers"]):
            self_s[layer] += float(own[i])
            calls[layer] += int(n_calls[i])
        for name, value in meta["counters"].items():
            counters[name] = counters.get(name, 0) + value
        top_s += float(dur[~nested].sum())
        main_s += meta["main_s"]

    metrics = {f"{layer}_s": (self_s[layer], "s") for layer in SPANNED}
    metrics.update((name, (calls[layer], "count")) for name, layer in SPAN_CALLS.items())
    metrics.update((f"{layer}_calls", (counters[f"{layer}_calls"], "count")) for layer in COUNTED)
    for _, _, quantity in SPANNED.values():
        if quantity is not None:
            metrics[quantity[0]] = (counters[quantity[0]], quantity[1])
    return metrics, top_s, main_s
