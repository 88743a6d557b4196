"""In-memory span tracer installed by wrapping module attributes.

The library calls its layers through module attributes (``analytic.scs_fidelity``,
``channel.bs_apply``, ...), so replacing those attributes with timing wrappers
records a span for every call without touching the library.  A span is
``[name, start, end, parent, cell, info]``: ``parent`` is the index of the
enclosing span (-1 at top level), ``cell`` the id of the cell being run and
``info`` an optional per-call detail (array size, beam-splitter key, optimizer
flags).  Self time is a span's duration minus the durations of its direct
children; spans on one thread nest, so the children never overlap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from catamp import amplify, analytic, channel, cli, fock, optimize, states

import workloads


def _fidelity_points(args, kwargs, result):
    g = args[1] if len(args) > 1 else kwargs["g"]
    return int(np.size(g)) if np.ndim(g) else None  # None marks a scalar call


def _bs_key(args, kwargs, result):
    state, bs = args[0], args[1] if len(args) > 1 else kwargs["bs"]
    return (bs.gamma, *state.dims)


def _opt_flags(args, kwargs, result):
    return (bool(result.converged), bool(result.boundary_hit))


#: (module, attribute, span name, info extractor, starts a new cell)
TARGETS = (
    (cli, "run_sweep", "cli.run_sweep", None, False),
    (cli, "format_csv", "cli.format_csv", None, False),
    (cli, "_run_cell", "cli.cell", None, True),
    (optimize, "scs_gain", "optimize.scs_gain", _opt_flags, False),
    (analytic, "scs_fidelity", "analytic.scs_fidelity", _fidelity_points, False),
    (analytic, "scs_qfi", "analytic.scs_qfi", None, False),
    (amplify, "scs_amplified", "amplify.scs_amplified", None, False),
    (states, "scs_state", "states.scs_state", None, False),
    (states, "hes_state", "states.hes_state", None, False),
    (fock, "ladder", "fock.ladder", None, False),
    (fock, "inner", "fock.inner", None, False),
    (fock, "moments", "fock.moments", None, False),
    (channel, "bs_apply", "channel.bs_apply", _bs_key, False),
    (channel, "heralded_op", "channel.heralded_op", None, False),
    (channel, "kraus_apply", "channel.kraus_apply", None, False),
    (channel, "scheme_success_prob", "channel.scheme_success_prob", None, False),
    (channel, "compare_sim_vs_kraus", "channel.compare_sim_vs_kraus", None, False),
    (workloads, "sweep_job", "bench.sweep", None, False),
    (workloads, "cross_check_cell", "bench.cell", None, True),
    (workloads, "circuit_cell", "bench.cell", None, True),
)

LAYERS = ("cli", "optimize", "analytic", "amplify", "states", "fock", "channel", "bench")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing = [f"{m.__name__}.{a}" for m, a, *_ in TARGETS if not hasattr(m, a)]
        self._stack: list[int] = []
        self._cell = -1
        self._next_cell = 0
        self._saved: list = []

    def _wrap(self, fn, name, info, new_cell):
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._cell, None]
            if new_cell:
                outer, self._cell = self._cell, self._next_cell
                self._next_cell += 1
                rec[4] = self._cell
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                stack.pop()
                if new_cell:
                    self._cell = outer
            if info is not None:
                rec[5] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, info, new_cell in TARGETS:
            if hasattr(module, attr):
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, info, new_cell))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "cell", "info")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _sector_cube_sum(ns: int, na: int) -> int:
    """Sum of size^3 over the total-photon-number sectors of an (ns, na) grid."""
    return sum((min(t, ns - 1) - max(0, t - na + 1) + 1) ** 3 for t in range(ns + na - 1))


def layer_metrics(spans: list, passes: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from traced passes: counts per pass, mean self times per call."""
    n = len(spans)
    dur = np.array([r[2] - r[1] for r in spans]) if n else np.zeros(0)
    child = np.zeros(n)
    for r, d in zip(spans, dur):
        if r[3] >= 0:
            child[r[3]] += d
    self_t = dur - child

    calls = defaultdict(int)
    self_by_name = defaultdict(float)
    for r, s in zip(spans, self_t):
        calls[r[0]] += 1
        self_by_name[r[0]] += s

    def mean_self(names, scale):
        c = sum(calls[x] for x in names)
        return scale * sum(self_by_name[x] for x in names) / c if c else 0.0

    fid = [(i, r) for i, r in enumerate(spans) if r[0] == "analytic.scs_fidelity"]
    scalar = [i for i, r in fid if r[5] is None]
    array = [(i, r[5]) for i, r in fid if r[5] is not None]
    points = sum(p for _, p in array)
    gains = [r for r in spans if r[0] == "optimize.scs_gain"]
    evals = sum(1 for i, r in fid if r[3] >= 0 and spans[r[3]][0] == "optimize.scs_gain")
    bs_keys = [r[5] for r in spans if r[0] == "channel.bs_apply"]
    per_pass = 1.0 / max(passes, 1)
    layer_self = defaultdict(float)
    for name, s in self_by_name.items():
        layer_self[name.split(".", 1)[0]] += s
    self_sum = float(self_t.sum())

    m = {
        "analytic.scs_fidelity.scalar_calls": (len(scalar) * per_pass, "1/pass"),
        "analytic.scs_fidelity.scalar_self_us":
            (1e6 * float(self_t[scalar].sum()) / len(scalar) if scalar else 0.0, "us"),
        "analytic.scs_fidelity.array_points": (points * per_pass, "1/pass"),
        "analytic.scs_fidelity.array_ns_per_point":
            (1e9 * float(sum(self_t[i] for i, _ in array)) / points if points else 0.0, "ns"),
        "analytic.scs_qfi.calls": (calls["analytic.scs_qfi"] * per_pass, "1/pass"),
        "analytic.scs_qfi.self_us": (mean_self(["analytic.scs_qfi"], 1e6), "us"),
        "optimize.scs_gain.calls": (len(gains) * per_pass, "1/pass"),
        "optimize.scs_gain.self_ms": (mean_self(["optimize.scs_gain"], 1e3), "ms"),
        "optimize.evals_per_gain": (evals / len(gains) if gains else 0.0, "1/call"),
        "optimize.converged_frac":
            (sum(r[5][0] for r in gains) / len(gains) if gains else 0.0, "frac"),
        "optimize.boundary_frac":
            (sum(r[5][1] for r in gains) / len(gains) if gains else 0.0, "frac"),
        "states.build_calls":
            ((calls["states.scs_state"] + calls["states.hes_state"]) * per_pass, "1/pass"),
        "states.build_self_us": (mean_self(["states.scs_state", "states.hes_state"], 1e6), "us"),
        "amplify.scs_amplified.calls": (calls["amplify.scs_amplified"] * per_pass, "1/pass"),
        "amplify.scs_amplified.self_us": (mean_self(["amplify.scs_amplified"], 1e6), "us"),
        "fock.ladder.calls": (calls["fock.ladder"] * per_pass, "1/pass"),
        "channel.bs_apply.calls": (len(bs_keys) * per_pass, "1/pass"),
        "channel.bs_apply.self_ms": (mean_self(["channel.bs_apply"], 1e3), "ms"),
        "channel.bs_apply.distinct_key_frac":
            (len(set(bs_keys)) / len(bs_keys) if bs_keys else 0.0, "frac"),
        "channel.bs_apply.sector_cube_sum":
            (sum(_sector_cube_sum(ns, na) for _, ns, na in bs_keys) * per_pass, "1/pass"),
        "channel.heralded_op.calls": (calls["channel.heralded_op"] * per_pass, "1/pass"),
        "channel.compare_sim_vs_kraus.self_ms":
            (mean_self(["channel.compare_sim_vs_kraus"], 1e3), "ms"),
        "channel.kraus.calls": (calls["channel.kraus_apply"] * per_pass, "1/pass"),
        "channel.kraus.self_us": (mean_self(["channel.kraus_apply"], 1e6), "us"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer] * per_pass, "s/pass")
    m["trace.spans"] = (n * per_pass, "1/pass")
    m["trace.self_sum_frac"] = (self_sum / traced_wall if traced_wall else 0.0, "frac")
    m["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0, "frac")
    return m
