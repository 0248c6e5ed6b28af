"""In-memory span recording around the calls into each layer.

The traced run wraps named public callables of the program (methods on
classes, or module-level functions) with a recorder that appends one span
per call: name, start, end and the span that was open when the call began
(its parent). Nothing under ``src/`` changes: the wrappers are installed
on the class or module attribute for the traced run only and the original
objects are put back afterwards, even when the run raises.

A span's self time is its duration minus the durations of its children;
children of one span never overlap, because every wrapped call is
synchronous. The benchmark opens one *root* span around each timed call
(a serve call or a forward); per-layer shares are self times summed over
spans under a root, divided by the summed root durations, and whatever
the wrapped layers do not cover is the roots' own self time, reported as
``unattributed``.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import NamedTuple

import numpy as np

__all__ = ["SpanRecorder", "Probe"]

_perf = time.perf_counter


class Probe(NamedTuple):
    """One callable to wrap: ``owner.attr`` recorded as span ``name``.

    ``span=False`` only counts calls made under a root (for callables so
    hot or so small that a span would cost more than the call itself).
    ``count_results`` also counts calls that returned something other
    than ``None`` (a decision, an event, an applied fit).
    """

    owner: object
    attr: str
    name: str
    span: bool = True
    count_results: bool = False


class SpanRecorder:
    """Spans in flat arrays, plus call and result counters per name."""

    ROOT = "root"

    def __init__(self):
        self.names: list[str] = [self.ROOT]
        self._ids: dict[str, int] = {self.ROOT: 0}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self._in_root = 0
        self.calls: dict[str, int] = {}
        self.results: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_perf())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = _perf()
        self._stack.pop()

    def root(self, fn, *args):
        """Call ``fn(*args)`` inside a root span; returns its result."""
        idx = self._open(0)
        self._in_root += 1
        try:
            return fn(*args)
        finally:
            self._in_root -= 1
            self._close(idx)

    def _wrapper(self, fn, probe: Probe):
        name = probe.name
        calls = self.calls
        results = self.results
        calls.setdefault(name, 0)
        results.setdefault(name, 0)
        count_results = probe.count_results
        if not probe.span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self._in_root:
                    calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        nid = self._id(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if self._in_root:
                calls[name] += 1
                if count_results and out is not None:
                    results[name] += 1
            return out
        return spanned

    # -- installation ------------------------------------------------------
    def install(self, probes) -> None:
        """Replace every probed attribute with its recording wrapper."""
        if self._saved:
            raise RuntimeError("probes are already installed")
        try:
            for probe in probes:
                original = probe.owner.__dict__[probe.attr]
                self._saved.append((probe.owner, probe.attr, original))
                setattr(probe.owner, probe.attr,
                        self._wrapper(original, probe))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original attribute back (idempotent)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- read-out ----------------------------------------------------------
    def arrays(self):
        """``(name_id, start, end, parent)`` as NumPy arrays."""
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.parent, dtype=np.int64))

    def self_times(self) -> tuple[float, dict[str, float]]:
        """Summed root seconds, and self seconds per name under roots.

        Spans outside every root (set-up work) are left out here; read
        them with :meth:`outside_roots`.
        """
        nid, start, end, parent = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        under = self._under_root(nid, parent)
        self_s = {name: float(own[under & (nid == i)].sum())
                  for i, name in enumerate(self.names)}
        return float(dur[nid == 0].sum()), self_s

    def root_durations(self) -> list[float]:
        """Duration of every root span, in the order they were opened."""
        nid, start, end, _ = self.arrays()
        return (end - start)[nid == 0].tolist()

    def outside_roots(self, name: str) -> float:
        """Summed duration of ``name`` spans opened outside every root."""
        nid, start, end, parent = self.arrays()
        if name not in self._ids:
            return 0.0
        mask = ~self._under_root(nid, parent) & (nid == self._ids[name])
        return float((end[mask] - start[mask]).sum())

    @staticmethod
    def _under_root(nid, parent) -> np.ndarray:
        # parents precede their children, so one forward sweep settles it
        under = [False] * len(nid)
        for i, (n, p) in enumerate(zip(nid.tolist(), parent.tolist())):
            under[i] = n == 0 or (p >= 0 and under[p])
        return np.array(under, dtype=bool)

    def save(self, path: str) -> None:
        """Write every span (names indexed by ``name_id``) to ``path``."""
        nid, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid,
                            start_s=start, end_s=end, parent=parent)
