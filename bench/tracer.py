"""Traced otk invocation: ``python bench/tracer.py SPANS.json <otk argv...>``.

Run with ``src`` on PYTHONPATH.  Times ``import otk``, wraps the public
functions named in ``SPANS`` in every ``otk.*`` namespace that holds them,
counts calls into the numpy.linalg entry points and the scipy routines
otk.numrange uses, then calls ``otk.cli.main(argv)``.  Spans (name, start,
end, parent) stay in memory until main returns; the per-name aggregate is
then written to SPANS.json and the process exits with main's code.  stdout
is main's report, unchanged.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# span name -> (module, attribute) of each public function it covers
SPANS = {
    "cli.main": [("otk.cli", "main")],
    "matcore.load_matrix": [("otk.matcore", "load_matrix")],
    "matcore.matrix_to_json": [("otk.matcore", "matrix_to_json")],
    "catalog.reproduce_scenario": [("otk.catalog", "reproduce_scenario")],
    "numrange.ray_probe": [("otk.numrange", "ray_probe")],
    "numrange.nr_witness": [("otk.numrange", "nr_witness")],
    "numrange.zero_margin": [("otk.numrange", "zero_margin")],
    "numrange.nr_boundary": [("otk.numrange", "nr_boundary")],
    "numrange.maximal_numerical_range": [("otk.numrange", "maximal_numerical_range")],
    "bjorth.is_bj_orthogonal": [("otk.bjorth", "is_bj_orthogonal")],
    "bjorth.epsilon_min": [("otk.bjorth", "epsilon_min")],
    "bjorth.grid_oracle": [("otk.bjorth", "bj_grid_oracle"), ("otk.bjorth", "approx_grid_oracle")],
    "ando.schaffer_ST_criterion": [("otk.ando", "schaffer_ST_criterion")],
    "ando.regular_orth_predicate": [("otk.ando", "regular_orth_predicate")],
    "ando.ando_pair": [("otk.ando", "ando_pair")],
    "schaffer.construct": [
        ("otk.schaffer", name)
        for name in ("schaffer_window", "generalized_schaffer", "forced_orthogonal_pair", "hat_pair",
                     "adjoint_trick_pair")
    ],
    "schaffer.verify_power_dilation": [("otk.schaffer", "verify_power_dilation")],
    "schaffer.halmos_orth_criterion": [("otk.schaffer", "halmos_orth_criterion")],
    "rho.nilpotent_rho_example": [("otk.rho", "nilpotent_rho_example")],
}
WINDOW_TO_JSON = "schaffer.window_to_json"  # the DilationWindow.to_json_dict method
LINALG = ("eigvalsh", "eigh", "norm", "svd", "matrix_power")
SCIPY = ("schur", "minimize_scalar")  # as imported by otk.numrange
# Names of the spans that report self time, and of the plain call counters.
SELF_TIMED = (*SPANS, WINDOW_TO_JSON)
COUNTED = (*(f"linalg.{f}" for f in LINALG), *(f"scipy.{f}" for f in SCIPY))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.cells = 0

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][3] = clock()
                stack.pop()

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
            agg["calls"] += 1
            agg["self_ms"] += 1000.0 * (end - start - child[i])
            agg["total_ms"] += 1000.0 * (end - start)
        return {"spans": out, "counts": dict(self.counts), "cells": self.cells}


def _rebind(original, replacement) -> None:
    """Point every otk.* name bound to `original` at `replacement`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "otk" or modname.startswith("otk.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    import numpy as np

    import otk.cli
    import otk.numrange
    import otk.properties
    import otk.schaffer

    for name, targets in SPANS.items():
        for modname, attr in targets:
            original = getattr(sys.modules[modname], attr)
            wrapped = tracer.span(name, original)
            if name == "matcore.matrix_to_json":
                wrapped = _counting_cells(tracer, wrapped)
            _rebind(original, wrapped)
    win = otk.schaffer.DilationWindow
    win.to_json_dict = tracer.span(WINDOW_TO_JSON, win.to_json_dict)
    for suite, props in otk.properties.SUITES.items():
        props[:] = [tracer.span(f"properties.{suite}", p) for p in props]
    for fname in LINALG:
        setattr(np.linalg, fname, tracer.counter(f"linalg.{fname}", getattr(np.linalg, fname)))
    for fname in SCIPY:
        original = getattr(otk.numrange, fname)
        _rebind(original, tracer.counter(f"scipy.{fname}", original))


def _counting_cells(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        obj = fn(*args, **kwargs)
        tracer.cells += obj["rows"] * obj["cols"]
        return obj

    return wrapper


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    import_otk = tracer.span("import.otk", lambda: __import__("otk.cli"))
    import_otk()
    install(tracer)
    import otk.cli

    try:
        code = otk.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
