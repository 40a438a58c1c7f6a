"""Span tracing around the public calls into each bellsieve layer.

The modules import each other's functions by name (`from .twophoton import
apply_mode_map`), so wrapping a function on its defining module alone would
miss most calls.  `Tracer.install` therefore replaces the function on every
loaded bellsieve module that holds it, and `uninstall` puts the originals
back.  Spans are kept in memory as flat arrays and written out at the end.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from typing import Dict, List, Tuple

import numpy as np

# (module, function) pairs whose calls get a span; the module name is the
# layer name in the reported metrics
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("twophoton", "make_state"),
    ("twophoton", "attach_pump_parity"),
    ("twophoton", "rebase_path"),
    ("twophoton", "apply_mode_map"),
    ("optics", "load_circuit"),
    ("optics", "run_circuit"),
    ("optics", "apply_element"),
    ("analysis", "prepare_inputs"),
    ("analysis", "signature_table"),
    ("analysis", "event_distribution"),
    ("analysis", "classify"),
    ("analysis", "success_probability"),
    ("analysis", "hom_scan"),
    ("hgmodes", "coincidence_amplitude"),
    ("hgmodes", "hg_field"),
    ("cli", "main"),
)
OP_SPAN = "bench.op"  # root span the benchmark opens around each op


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = [f"{m}.{f}" for m, f in TARGETS] + [OP_SPAN]
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.terms_out = 0  # pair terms in the states run_circuit returns
        # one entry per span: name index, op index, parent span (-1 at the root)
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: List[list] = []  # [span index, child ns] per open span
        self._patched: List[Tuple[object, str, object]] = []
        self.op = -1

    def _enter(self, name: int) -> list:
        idx = len(self.span_name)
        self.span_name.append(name)
        self.span_op.append(self.op)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        frame = [idx, 0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: int, frame: list) -> None:
        end = time.perf_counter_ns()
        idx = frame[0]
        self.span_end[idx] = end
        self._stack.pop()
        dur = end - self.span_start[idx]
        self.calls[name] += 1
        self.self_ns[name] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur

    def _wrap(self, name: int, fn):
        counts_terms = self.names[name] == "optics.run_circuit"

        def traced(*args, **kwargs):
            if not self._stack:  # outside an op: the benchmark's own inputs or checks
                return fn(*args, **kwargs)
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if counts_terms:
                self.terms_out += len(result.terms)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_index: int, fn, *args):
        """Run one benchmark op under a root span."""
        self.op = op_index
        frame = self._enter(len(TARGETS))
        try:
            return fn(*args)
        finally:
            self._exit(len(TARGETS), frame)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "bellsieve" or name.startswith("bellsieve.")]
        for i, (mod_name, fn_name) in enumerate(TARGETS):
            orig = getattr(sys.modules[f"bellsieve.{mod_name}"], fn_name)
            wrapper = self._wrap(i, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        out: Dict[str, Tuple[float, str]] = {}
        for i, name in enumerate(self.names[:len(TARGETS)]):
            out[f"{name}.calls"] = (self.calls[i], "count")
            out[f"{name}.self_s"] = (self.self_ns[i] / 1e9, "s")
        return out

    def dump(self, path: str, machine: dict) -> None:
        """Write the spans as columns: name index, op, parent span, start and end ns."""
        t0 = self.span_start[0] if self.span_start else 0
        np.savez_compressed(
            path,
            machine=np.array(json.dumps(machine)),
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64) - t0,
            end_ns=np.frombuffer(self.span_end, dtype=np.int64) - t0,
        )
