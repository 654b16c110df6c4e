"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: ``Tracer.installed()`` swaps the
public names that ``lpic.cli`` and ``lpic.simulate`` call into the other
modules for timing wrappers, and puts the originals back on exit.  Each span
is ``(call, id, parent, name, start, end, attr)``; spans go to a per-thread
buffer and are merged after the run.  A span opened on a thread with no open
span of its own (a block on a pool worker) is parented to the call's
``simulate.run_ber_experiment`` span.

Layer names follow the ``src/lpic`` modules.  ``lpic.multicarrier`` gets no
span: the BER harness never calls it (the type2 combined-domain code is
inlined in ``simulate._detect_block``).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager

# (module attribute holding the callee, wrapped name, span name, attr getter)
_PATCHES = (
    ("cli", "load_config", "config.load_config", None),
    ("cli", "run_ber_experiment", "simulate.run_ber_experiment", None),
    ("cli", "render_ber_csv", "simulate.render_ber_csv", None),
    ("simulate", "build_filter", "filters.build_filter",
     lambda args, kwargs: args[0] if args else kwargs["kind"]),
    ("simulate", "compute_weight_schedule", "sinr.compute_weight_schedule", None),
    ("simulate", "generate_spreading_set", "model.generate_spreading_set", None),
    ("simulate", "correlation_matrix", "model.correlation_matrix", None),
    ("simulate", "noise_transform", "model.noise_transform", None),
    ("simulate", "convergence_check", "model.convergence_check", None),
    # private block runners: counted (blocks, trials), simulate's own time
    ("simulate", "_block_fixed", "simulate.block", lambda args, kwargs: args[2]),
    ("simulate", "_block_per_trial", "simulate.block", lambda args, kwargs: args[2]),
)

_ADOPTS_ORPHANS = "simulate.run_ber_experiment"


class Tracer:
    """Per-thread span buffers keyed by a shared call id."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[list] = []
        self._ids = itertools.count(1)
        self._orphan_parent = None
        self.call = 0

    def _buffer(self) -> list:
        buf = getattr(self._local, "spans", None)
        if buf is None:
            buf = self._local.spans = []
            self._local.stack = []
            with self._lock:
                self._buffers.append(buf)
        return buf

    @contextmanager
    def span(self, name: str, attr=None):
        buf = self._buffer()
        stack = self._local.stack
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else self._orphan_parent
        if name == _ADOPTS_ORPHANS:
            self._orphan_parent = span_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            buf.append((self.call, span_id, parent, name, start, end, attr))

    def begin_call(self) -> int:
        self.call += 1
        self._orphan_parent = None
        return self.call

    def _wrap(self, fn, name, attr_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attr = attr_of(args, kwargs) if attr_of else None
            with self.span(name, attr):
                return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self, modules: dict):
        """Swap in the wrappers; always restore the originals."""
        saved = []
        try:
            for mod_key, attr_name, span_name, attr_of in _PATCHES:
                mod = modules[mod_key]
                original = getattr(mod, attr_name)
                saved.append((mod, attr_name, original))
                setattr(mod, attr_name, self._wrap(original, span_name, attr_of))
            yield self
        finally:
            for mod, attr_name, original in reversed(saved):
                setattr(mod, attr_name, original)

    def spans(self) -> list[tuple]:
        """All buffers merged, ordered by call and start time."""
        with self._lock:
            merged = [s for buf in self._buffers for s in buf]
        return sorted(merged, key=lambda s: (s[0], s[4]))

    def write(self, path) -> None:
        keys = ("call", "id", "parent", "name", "start", "end", "attr")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans():
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def restored(modules: dict, originals: dict) -> bool:
    """True when every patched name is back to its original object."""
    return all(
        getattr(modules[m], a) is originals[(m, a)] for m, a, _, _ in _PATCHES
    )


def originals(modules: dict) -> dict:
    return {(m, a): getattr(modules[m], a) for m, a, _, _ in _PATCHES}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def call_layers(spans: list[tuple], kinds) -> dict:
    """Per-layer totals and counts for the spans of one call.

    A span's self time is its duration minus the part of it covered by the
    nearest spans of another layer beneath it (same-layer spans in between,
    such as ``simulate.block``, are walked through).  Defined for a call run
    on one thread, where nested intervals lie inside their parent.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s[2], []).append(s)

    def self_time(span) -> float:
        layer, covered, todo = _layer(span[3]), [], list(children.get(span[1], ()))
        while todo:
            child = todo.pop()
            if _layer(child[3]) == layer:
                todo.extend(children.get(child[1], ()))
            else:
                covered.append((max(child[4], span[4]), min(child[5], span[5])))
        return (span[5] - span[4]) - _union_length(covered)

    out = {
        "cli.main_s": 0.0, "cli.self_s": 0.0, "config.load_s": 0.0,
        "simulate.self_s": 0.0, "simulate.render_s": 0.0,
        "simulate.blocks": 0, "simulate.trials": 0,
        "sinr.schedule_s": 0.0, "sinr.schedules": 0,
        "filters.build_s": 0.0, "filters.builds": 0,
        "model.sequence_s": 0.0, "model.spreading_draws": 0,
    }
    by_kind = {kind: (0.0, 0) for kind in kinds}
    for s in spans:
        name, dur = s[3], s[5] - s[4]
        if name == "cli.main":
            out["cli.main_s"] += dur
            out["cli.self_s"] += self_time(s)
        elif name == "config.load_config":
            out["config.load_s"] += dur
        elif name == "simulate.run_ber_experiment":
            out["simulate.self_s"] += self_time(s)
        elif name == "simulate.render_ber_csv":
            out["simulate.render_s"] += dur
        elif name == "simulate.block":
            out["simulate.blocks"] += 1
            out["simulate.trials"] += s[6]
        elif name == "sinr.compute_weight_schedule":
            out["sinr.schedule_s"] += dur
            out["sinr.schedules"] += 1
        elif name == "filters.build_filter":
            out["filters.build_s"] += dur
            out["filters.builds"] += 1
            t, n = by_kind.get(s[6], (0.0, 0))
            by_kind[s[6]] = (t + dur, n + 1)
        elif _layer(name) == "model":
            out["model.sequence_s"] += dur
            if name == "model.generate_spreading_set":
                out["model.spreading_draws"] += 1
    for kind, (t, n) in by_kind.items():
        out[f"filters.build_s.{kind}"] = t
        out[f"filters.builds.{kind}"] = n
    return out
