"""In-memory per-layer tracing through wrappers on module attributes.

The package's layers call each other through module globals (`cli` calls
`simulate.strong_error_experiment` as `cli.strong_error_experiment`, the
engine calls `simulate.step_batch`, the schemes call `schemes.drift_rows`),
so replacing those attributes with timing wrappers traces every crossing
without touching the package. Per-step calls number in the millions, so a
wrapper keeps no span: it adds to a per-thread table of counts and times
keyed by function. Self time is a call's duration minus the time spent in
the wrapped calls it made.

Each call is timed twice: in wall time, and in the calling thread's CPU
time. With worker threads a callee on a worker thread has no traced parent,
so the thread that waits for it keeps the wait in its own wall self time,
and a thread waiting for the interpreter lock inside a call adds that wait
to the call's wall time. Wall shares can then sum to more than one; shares
of the process CPU time cannot.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter

_FIELDS = ("calls", "total_s", "layer_total_s", "self_s", "total_cpu_s",
           "self_cpu_s", "last_end")


class _ThreadState:
    def __init__(self):
        self.stack = []          # per open call: [child wall, child cpu]
        self.open = Counter()    # open calls per function key and per layer
        self.table = {}          # key -> [layer, *_FIELDS]


class Tracer:
    """Install with `wrap(module, attr, layer)`, undo with `restore()`."""

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._patches = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, module, attr: str, layer: str) -> None:
        original = getattr(module, attr)
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        wall, cpu = time.perf_counter, time.thread_time

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            st = self._state()
            child = [0.0, 0.0]
            st.stack.append(child)
            st.open[key] += 1
            st.open[layer] += 1
            w0, c0 = wall(), cpu()
            try:
                return original(*args, **kwargs)
            finally:
                c1, w1 = cpu(), wall()
                dw, dc = w1 - w0, c1 - c0
                st.stack.pop()
                st.open[key] -= 1
                st.open[layer] -= 1
                rec = st.table.get(key)
                if rec is None:
                    rec = st.table[key] = [layer, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
                rec[1] += 1
                if not st.open[key]:        # outermost call of this function
                    rec[2] += dw
                    rec[5] += dc
                if not st.open[layer]:      # outermost call into this layer
                    rec[3] += dw
                rec[4] += dw - child[0]
                rec[6] += dc - child[1]
                rec[7] = w1
                if st.stack:
                    st.stack[-1][0] += dw
                    st.stack[-1][1] += dc

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def functions(self) -> dict:
        """key -> {layer, calls, total_s, layer_total_s, self_s, total_cpu_s,
        self_cpu_s, last_end}, summed over threads (last_end: latest)."""
        out = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, (layer, *values) in st.table.items():
                f = out.setdefault(key, dict.fromkeys(_FIELDS, 0))
                f["layer"] = layer
                for name, v in zip(_FIELDS, values):
                    f[name] = max(f[name], v) if name == "last_end" else f[name] + v
        return out

    def layers(self) -> dict:
        """layer -> {calls, total_s, self_s, self_cpu_s}; a layer's total
        counts only calls not nested in another call of the same layer."""
        out = {}
        for f in self.functions().values():
            agg = out.setdefault(f["layer"], {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0, "self_cpu_s": 0.0})
            agg["calls"] += f["calls"]
            agg["total_s"] += f["layer_total_s"]
            agg["self_s"] += f["self_s"]
            agg["self_cpu_s"] += f["self_cpu_s"]
        return out
