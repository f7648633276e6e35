"""Spans and counters recorded around the package's layer functions.

The tracer wraps module attributes from the outside: each wrapped call opens
a span (name, start, end, parent) kept in memory and written out at the end.
A span's layer is the part of its name before the first dot, which is the
package module it belongs to. Wrapping patches the names a caller looks up
(for example `supersetlabel.solver.cccp_gradient`, the name the solver calls),
so every call made through that name is seen, and `restore` undoes it.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        # one entry per span in four parallel lists; lists of floats and ints
        # add no objects for the cyclic garbage collector to scan
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # index of the enclosing span, or -1
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._gd_frames: list[list] = []  # [gradients computed, last gradient norm]
        self.missing: list[str] = []  # names asked for that the package lacks

    # -- recording -----------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._open.pop()

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        wrapper = functools.wraps(original)(make(original))
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span around every call of owner.attr."""
        self._patch(owner, attr, lambda f: (
            lambda *a, **k: self.call(name, f, *a, **k)))

    def count(self, owner, attr: str, name: str) -> None:
        """Count the calls of owner.attr without a span (for very hot calls)."""
        def make(f):
            def counted(*a, **k):
                self.counts[name] += 1
                return f(*a, **k)
            return counted
        self._patch(owner, attr, make)

    def wrap_gd(self, owner, attr: str, name: str) -> None:
        """Span around a gradient-descent call that also tallies its gradients
        and whether it stopped at its iteration cap with the gradient norm
        still above tolerance."""
        def make(f):
            sig = inspect.signature(f)

            def traced(*a, **k):
                bound = sig.bind(*a, **k)
                cfg, F_init = bound.arguments["cfg"], bound.arguments["F_init"]
                self._gd_frames.append([0, np.nan])
                try:
                    return self.call(name, f, *a, **k)
                finally:
                    grads, last_norm = self._gd_frames.pop()
                    self.counts["solver.gd_iters"] += grads
                    tol = cfg.resolved_grad_tol(*F_init.shape)
                    if grads >= cfg.gd_max_iters and last_norm > tol:
                        self.counts["solver.gd_cap_hits"] += 1
            return traced
        self._patch(owner, attr, make)

    def wrap_gradient(self, owner, attr: str, name: str) -> None:
        """Span around a gradient call; inside a GD call it feeds that call's tally."""
        def make(f):
            def traced(*a, **k):
                g = self.call(name, f, *a, **k)
                if self._gd_frames:
                    frame = self._gd_frames[-1]
                    frame[0] += 1
                    frame[1] = float(np.sqrt(np.sum(g * g)))
                return g
            return traced
        self._patch(owner, attr, make)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------

    def _spans(self):
        return zip(self.names, self.starts, self.ends, self.parents)

    def total(self, name: str) -> float:
        """Summed duration of the spans called name."""
        return sum(e - s for n, s, e, _ in self._spans() if n == name)

    def calls(self, name: str, parent: str | None = None) -> int:
        """Number of spans called name, optionally only under a parent span."""
        return sum(1 for n, _, _, p in self._spans() if n == name and (
            parent is None or (p >= 0 and self.names[p] == parent)))

    def self_times(self) -> dict[str, float]:
        """Per layer, span time not covered by child spans."""
        child = defaultdict(float)
        for _, start, end, parent in self._spans():
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self._spans()):
            out[name.split(".", 1)[0]] += end - start - child[i]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("id,name,start,end,parent\n")
            f.writelines(f"{i},{name},{start:.9f},{end:.9f},{parent}\n"
                         for i, (name, start, end, parent) in enumerate(self._spans()))
