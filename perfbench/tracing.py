"""Spans around the calls into each lossprobe layer, recorded from outside.

`Tracer.install()` replaces every public function listed in `LAYERS` with a
timing wrapper at every module of the package that bound it (a function
imported into four modules is wrapped in all four, so no call path escapes),
and `Tracer.uninstall()` puts every original binding back.  Nothing in
`src/` is edited and an untraced run installs no wrapper.

A span is `[name, layer, start, end, parent, run, ok, note]`: `parent` is the
index of the enclosing span (-1 for a root), `run` the job id, `ok` false when
the call raised, and `note` an optional value taken from the return value
(for example whether `qcb` took the pure-state branch).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable

import numpy as np

NAME, LAYER, START, END, PARENT, RUN, OK, NOTE = range(8)


def _qcb_pure(report) -> bool:
    return report.fidelity is not None


def _fock_dim(rho) -> int:
    return int(rho.mat.shape[0])


def _checks_failed(results) -> int:
    return sum(not r.passed for r in results)


# layer -> [(module, attribute path, note)]; the layers are the package modules
LAYERS: dict[str, list[tuple[str, str, Callable | None]]] = {
    "gaussian.cm_validate": [("gaussian", "CovarianceMatrix.__post_init__", None)],
    "gaussian.cm_build": [
        ("gaussian", "make_single_mode_st", None),
        ("gaussian", "make_two_mode_st", None),
    ],
    "gaussian.overlap": [("gaussian", "overlap", None)],
    "gaussian.symplectic": [
        ("gaussian", "symplectic_eigenvalues", None),
        ("gaussian", "symplectic_invariants", None),
    ],
    "channel.recover": [
        ("channel", "output_params_single", None),
        ("channel", "output_params_two", None),
    ],
    "channel.evolve": [("channel", "evolve_single", None), ("channel", "evolve_two", None)],
    "chernoff.qcb": [("chernoff", "qcb", _qcb_pure)],
    "chernoff.qs": [("chernoff", "q_s_single", None), ("chernoff", "q_s_two", None)],
    "chernoff.minimize": [("chernoff", "minimize_scalar_golden", None)],
    "probes.discriminate": [
        ("probes", "q1", None),
        ("probes", "q2", None),
        ("probes", "delta_q", None),
        ("probes", "delta_q_gamma", None),
        ("probes", "discriminate", None),
        ("probes", "params_from_spec", None),
        ("probes", "ProbeSpec.__post_init__", None),
    ],
    "correlations": [
        ("correlations", "correlation_report", None),
        ("correlations", "log_negativity", None),
        ("correlations", "discord", None),
        ("correlations", "mutual_information", None),
        ("correlations", "pt_symplectic_eigenvalues", None),
    ],
    "fock.state": [
        ("fock", "fock_squeezed_thermal", _fock_dim),
        ("fock", "truncation_deficit", None),
    ],
    "fock.kraus": [("fock", "apply_loss_kraus", _fock_dim)],
    "fock.moments": [("fock", "moments_from_fock", None)],
    "fock.spectral": [
        ("fock", "qcb_fock", None),
        ("fock", "fidelity_fock", None),
        ("fock", "s_overlap_fock", None),
        ("fock", "trace_distance_fock", None),
    ],
    "fock.helstrom": [("fock", "helstrom_pe_fock", None)],
    "verification": [("verification", "run_case", _checks_failed)],
}

ROOT_LAYER = "cli"


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "lossprobe" or name.startswith("lossprobe.")]


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self, run_id: int = 0) -> None:
        self.spans: list[list] = []
        self.run_id = run_id
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, layer: str, fn: Callable, note: Callable | None = None) -> Callable:
        """`fn` recording one span per call while this tracer is in use."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                span[OK] = True
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, Callable] = {}
        methods = []
        for layer, targets in LAYERS.items():
            for module, path, note in targets:
                owner = sys.modules[f"lossprobe.{module}"]
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr] if owner_path else getattr(owner, attr)
                wrapper = self.wrap(path, layer, fn, note)
                if owner_path:
                    methods.append((owner, attr, fn, wrapper))
                else:
                    wrappers[id(fn)] = wrapper
        try:
            for owner, attr, fn, wrapper in methods:
                self._patch(owner, attr, fn, wrapper)
            for module in _package_modules():
                for attr, value in list(vars(module).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        self._patch(module, attr, value, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {"id": i, "name": s[NAME], "layer": s[LAYER], "start": s[START],
                         "end": s[END], "parent": s[PARENT], "run": s[RUN], "ok": s[OK], "note": s[NOTE]}
                    )
                    + "\n"
                )


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def outermost(spans: list[list]) -> list[bool]:
    """True for spans with no enclosing span of the same layer (entries into it)."""
    out = []
    for s in spans:
        p = s[PARENT]
        while p >= 0 and spans[p][LAYER] != s[LAYER]:
            p = spans[p][PARENT]
        out.append(p < 0)
    return out


def _pct_us(durations: list[float], q: float) -> float:
    return float(np.percentile(durations, q)) * 1e6 if durations else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one traced job (spans of a single run)."""
    selfs = self_times(spans)
    outer = outermost(spans)
    layers = [ROOT_LAYER, *LAYERS]
    self_s = dict.fromkeys(layers, 0.0)
    calls = dict.fromkeys(layers, 0)
    durations: dict[str, list[float]] = {}
    for s, own, first in zip(spans, selfs, outer):
        self_s[s[LAYER]] += own
        calls[s[LAYER]] += first
        durations.setdefault(s[NAME], []).append(s[END] - s[START])

    def by_layer(layer: str) -> list[list]:
        return [s for s in spans if s[LAYER] == layer]

    qcbs = by_layer("chernoff.qcb")
    pure = sum(1 for s in qcbs if s[NOTE] is True)
    mixed = sum(1 for s in qcbs if s[NOTE] is False)
    qs_evals = len(by_layer("chernoff.qs"))
    fock_dims = [s[NOTE] for s in by_layer("fock.state") + by_layer("fock.kraus") if s[NOTE] is not None]
    cases = by_layer("verification")
    build_us = durations.get("make_single_mode_st", []) + durations.get("make_two_mode_st", [])
    qs_us = durations.get("q_s_single", []) + durations.get("q_s_two", [])
    m = {}
    for layer in ("gaussian.cm_validate", "gaussian.cm_build", "gaussian.overlap", "channel.recover",
                  "chernoff.qcb", "probes.discriminate", "correlations"):
        m[f"{layer}.calls"] = calls[layer]
    for layer in layers:
        m[f"{layer}.self_s"] = self_s[layer]
    m.update(
        {
            "gaussian.cm_build.call_us.p50": _pct_us(build_us, 50),
            "channel.recover.failed": sum(1 for s in by_layer("channel.recover") if not s[OK]),
            "chernoff.qcb.pure_share": pure / len(qcbs) if qcbs else 0.0,
            "chernoff.qcb.call_us.p50": _pct_us(durations.get("qcb", []), 50),
            "chernoff.qcb.call_us.p99": _pct_us(durations.get("qcb", []), 99),
            "chernoff.qs.evals": qs_evals,
            "chernoff.qs.evals_per_mixed_qcb": qs_evals / mixed if mixed else 0.0,
            "chernoff.qs.call_us.p50": _pct_us(qs_us, 50),
            "probes.discriminate.call_us.p50": _pct_us(durations.get("discriminate", []), 50),
            "correlations.call_us.p50": _pct_us(durations.get("correlation_report", []), 50),
            "fock.dense_bytes": sum(8 * d * d for d in fock_dims),
            "fock.max_dim": max(fock_dims, default=0),
            "verification.cases": len(cases),
            "verification.checks_failed": sum(s[NOTE] or 0 for s in cases),
            "verification.case_s.max": max((s[END] - s[START] for s in cases), default=0.0),
        }
    )
    return m
