"""Layer spans recorded from outside the program, and their self-time arithmetic.

The traced run wraps calls into each layer's public functions (a few
private engine entry points where the public one is bypassed, see
``LAYER_METHODS``) and records one span per call: name, host start/end,
and the span that was open on the same thread when it began.  Nothing
under ``src/`` changes:

* methods are wrapped on the *class* that defines them, never on an
  instance — an instance attribute named ``exchange`` would divert
  ``Communicator.exchange_arrays`` onto its dict-outbox fallback;
* module-level functions are replaced in every ``repro`` module that
  holds them, because callers such as ``bfs_2d`` import
  ``bottom_up_level_2d`` by name and would otherwise keep the original.

A span's *self time* is its duration minus the part of it covered by the
union of its children, so nested or overlapping children are never
counted twice.  Spans live in per-thread ``array`` buffers (the server
traverses on its own worker thread) and are analysed after the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

#: (span name, module, class, method) — wrapped on the defining class
LAYER_METHODS: tuple[tuple[str, str, str, str], ...] = (
    ("runtime.comm.exchange", "repro.runtime.comm", "Communicator", "exchange"),
    ("runtime.comm.exchange_arrays", "repro.runtime.comm", "Communicator", "exchange_arrays"),
    ("faults.checkpoint", "repro.runtime.comm", "Communicator", "replicate_checkpoint"),
    ("faults.checkpoint", "repro.runtime.comm", "Communicator", "recover_crashes"),
    ("faults.plan", "repro.faults.crash", "KeyedDropStream", "plan"),
    ("runtime.network.round_times_arrays", "repro.runtime.network", "Network",
     "round_times_arrays"),
    ("runtime.network.prepare_pairs", "repro.runtime.network", "Network", "prepare_pairs"),
    ("collectives.fold", "repro.collectives.reduce_scatter", "UnionRingFold", "fold_many_csr"),
    ("collectives.expand", "repro.collectives.base", "ExpandCollective", "expand_many"),
    ("collectives.expand", "repro.collectives.allgatherv", "DirectExpand", "expand_many"),
    # the fault-free direct expand is inlined in the 2D engine as the
    # documented equivalent of DirectExpand.expand_many
    ("collectives.expand", "repro.bfs.bfs_2d", "Bfs2DEngine", "_expand_step_direct"),
    ("bfs.engine.step", "repro.bfs.level_sync", "LevelSyncEngine", "step"),
    ("bfs.sieve", "repro.bfs.sieve", "PooledSieve", "keep_mask"),
    ("bfs.sieve", "repro.bfs.sieve", "PooledSieve", "observe_segmented"),
    ("bfs.sieve", "repro.bfs.sieve", "PooledSieve", "summary_messages"),
    ("bfs.sent_cache", "repro.bfs.sent_cache", "PooledSentCache", "filter_unsent_segmented"),
    ("bfs.sent_cache", "repro.bfs.sent_cache", "SentCache", "filter_unsent"),
    ("partition.build", "repro.partition.two_d", "TwoDPartition", "__init__"),
    ("partition.build", "repro.partition.one_d", "OneDPartition", "__init__"),
    ("session.bfs", "repro.session", "BfsSession", "bfs"),
    ("session.bfs_many", "repro.session", "BfsSession", "bfs_many"),
)

#: (span name, module, function) — replaced wherever a repro module holds it
LAYER_FUNCTIONS: tuple[tuple[str, str, str], ...] = (
    ("utils.segmented.segmented_unique", "repro.utils.segmented", "segmented_unique"),
    ("bfs.bottom_up.level", "repro.bfs.bottom_up", "bottom_up_level_1d"),
    ("bfs.bottom_up.level", "repro.bfs.bottom_up", "bottom_up_level_2d"),
    ("bfs.msbfs.run", "repro.bfs.msbfs", "run_ms_bfs"),
)

#: spans that enclose one traversal or one batch (the coverage base)
ROOT_SPANS = ("session.bfs", "session.bfs_many")


class _Buffer:
    """One thread's spans, appended at span exit."""

    __slots__ = ("stack", "next_id", "name", "start", "end", "sid", "parent", "size")

    def __init__(self) -> None:
        self.stack: list[tuple[int, int]] = []
        self.next_id = 0
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.sid = array("q")
        self.parent = array("q")
        self.size = array("q")


@dataclass
class Spans:
    """All recorded spans as arrays; ``parent`` is a position, -1 for none."""

    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    size: np.ndarray

    def of(self, name: str) -> np.ndarray:
        """Positions of the spans called ``name``, in start order."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        pos = np.flatnonzero(self.name == self.names.index(name))
        return pos[np.argsort(self.start[pos], kind="stable")]


class Tracer:
    """Records spans around wrapped layer calls while :meth:`installed`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        #: wrappers only record while installed (a wrapped bound method
        #: kept by the program past uninstall then just calls through)
        self.active = False

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            return buf

    def _enter(self, nid: int) -> tuple[_Buffer, int, int] | None:
        buf = self._buffer()
        stack = buf.stack
        if stack and stack[-1][1] == nid:
            return None  # same layer re-entered (a super() chain): one span
        sid = buf.next_id
        buf.next_id += 1
        parent = stack[-1][0] if stack else -1
        stack.append((sid, nid))
        return buf, sid, parent

    @staticmethod
    def _exit(frame, nid: int, t0: float, size: int) -> None:
        t1 = time.perf_counter()
        buf, sid, parent = frame
        buf.stack.pop()
        buf.name.append(nid)
        buf.start.append(t0)
        buf.end.append(t1)
        buf.sid.append(sid)
        buf.parent.append(parent)
        buf.size.append(size)

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        nid = self._name_id(name)
        frame = self._enter(nid) if self.active else None
        t0 = time.perf_counter()
        try:
            yield
        finally:
            if frame is not None:
                self._exit(frame, nid, t0, 0)

    def wrap(self, fn, name: str, size_of=None):
        """``fn`` recording one span per call; ``size_of(args)`` tags it."""
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(nid) if tracer.active else None
            if frame is None:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame, nid, t0, size_of(args) if size_of else 0)

        return traced

    @contextmanager
    def installed(self):
        """Install every layer wrapper; restore the originals on exit."""
        restore: list[tuple[object, str, object]] = []

        def patch(owner, attr, name, size_of=None):
            original = owner.__dict__[attr]
            restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, size_of))

        try:
            for name, module, cls_name, attr in LAYER_METHODS:
                cls = getattr(importlib.import_module(module), cls_name)
                patch(cls, attr, name, _SIZE_OF.get((cls_name, attr)))
            # every wire codec's encoded_nbytes is one layer
            codecs = [importlib.import_module("repro.wire").WireCodec]
            while codecs:
                cls = codecs.pop()
                codecs.extend(cls.__subclasses__())
                if "encoded_nbytes" in cls.__dict__:
                    patch(cls, "encoded_nbytes", "wire.encoded_nbytes")
            for name, module, func_name in LAYER_FUNCTIONS:
                original = getattr(importlib.import_module(module), func_name)
                wrapped = self.wrap(original, name)
                for mod_name, mod in list(sys.modules.items()):
                    if not mod_name.startswith("repro") or mod is None:
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
            self.active = True
            yield self
        finally:
            self.active = False
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def spans(self) -> Spans:
        """Every finished span, parents resolved to positions."""
        names, starts, ends, parents, sizes = [], [], [], [], []
        offset = 0
        for buf in self._buffers:
            sid = np.frombuffer(buf.sid, dtype=np.int64)
            parent = np.frombuffer(buf.parent, dtype=np.int64)
            # span ids are per-thread sequence numbers; map them to positions
            position = np.full(buf.next_id, -1, dtype=np.int64)
            position[sid] = offset + np.arange(sid.size)
            resolved = np.where(parent >= 0, position[np.maximum(parent, 0)], -1)
            names.append(np.frombuffer(buf.name, dtype=np.int32))
            starts.append(np.frombuffer(buf.start, dtype=np.float64))
            ends.append(np.frombuffer(buf.end, dtype=np.float64))
            parents.append(resolved)
            sizes.append(np.frombuffer(buf.size, dtype=np.int64))
            offset += sid.size

        def cat(parts, dtype):
            return np.concatenate(parts).astype(dtype) if parts else np.zeros(0, dtype)

        return Spans(
            list(self.names), cat(names, np.int64), cat(starts, np.float64),
            cat(ends, np.float64), cat(parents, np.int64), cat(sizes, np.int64),
        )


_SIZE_OF = {
    ("BfsSession", "bfs"): lambda args: 1,
    ("BfsSession", "bfs_many"): lambda args: len(args[1]),
}


def covered_time(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per span, the length of the union of its children clipped to it."""
    n = start.size
    child = np.flatnonzero(parent >= 0)
    if child.size == 0:
        return np.zeros(n)
    group = parent[child]
    lo = np.maximum(start[child], start[group])
    hi = np.minimum(end[child], end[group])
    keep = hi > lo
    group, lo, hi = group[keep], lo[keep], hi[keep]
    if group.size == 0:
        return np.zeros(n)
    order = np.lexsort((lo, group))
    group, lo, hi = group[order], lo[order], hi[order]
    # Union length per group in one pass: intervals sorted by start within
    # each group; each adds what it reaches past the running maximum end
    # of its predecessors.  Offsetting groups by more than the time range
    # lets one global running maximum stay inside each group.
    base = lo.min()
    width = hi.max() - base + 1.0
    shift = group.astype(np.float64) * width
    running = np.maximum.accumulate(hi - base + shift)
    prev = np.empty_like(running)
    prev[0] = -np.inf
    prev[1:] = running[:-1] - shift[1:] + base
    prev[np.r_[True, group[1:] != group[:-1]]] = -np.inf
    gain = np.maximum(0.0, hi - np.maximum(lo, prev))
    return np.bincount(group, weights=gain, minlength=n)


def self_times(spans: Spans) -> np.ndarray:
    """Each span's duration minus the time its children cover."""
    return (spans.end - spans.start) - covered_time(spans.start, spans.end, spans.parent)


def coverage(spans: Spans) -> float:
    """Share of root-span (traversal/batch) time inside named layer spans."""
    roots = np.concatenate([spans.of(name) for name in ROOT_SPANS])
    if roots.size == 0:
        return 0.0
    covered = covered_time(spans.start, spans.end, spans.parent)[roots].sum()
    total = (spans.end[roots] - spans.start[roots]).sum()
    return float(covered / total) if total > 0 else 0.0


def layer_totals(spans: Spans) -> dict[str, tuple[int, float]]:
    """``{span name: (calls, summed self seconds)}`` over every span."""
    own = self_times(spans)
    out: dict[str, tuple[int, float]] = {}
    for nid, name in enumerate(spans.names):
        mask = spans.name == nid
        out[name] = (int(mask.sum()), float(own[mask].sum()))
    return out
