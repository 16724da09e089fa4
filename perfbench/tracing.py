"""Span tracing of cltlab's layers, installed from outside the package.

Wrappers replace public functions in the namespace of the module that calls
them (for example ``cltlab.montecarlo.sample_sequence``), so no file of the
package changes. Each wrapper records a span (id, parent id, top-level
operation id, name, start, end) and updates counters at the same boundary.
Spans stay in per-thread memory buffers until the run ends.

A span's name is the per-layer metric its self time feeds. Self time is the
span's duration minus the part of it covered by child spans. Where spans of
two threads are self-active at the same instant, that instant is split
equally between them, so the self times of all spans plus the time no span
covers add up to the traced wall time.
"""

from __future__ import annotations

import itertools
import os
import threading
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

# Columns of one span row.
SID, PARENT, OP, NAME, START, END = range(6)

# Name of the benchmark's own top-level operation spans; their self time is
# reported as unattributed.
BENCH = "bench"

# z_value calls that sum this many terms hit the series engine's term cap.
CAPPED_TERMS = 1 << 24

DECAY_CLASS = {
    "MDependent": "m_dependent",
    "Explicit": "explicit",
    "Geometric": "geometric",
    "Polynomial": "polynomial",
}


class Tracer:
    """Records spans and counts from any number of threads."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._buffers: List[Tuple[array, Counter]] = []
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self.op = 0

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], array("d"), Counter())
            with self._lock:
                self._buffers.append(state[1:])
            self._local.state = state
        return state

    def _index(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            with self._lock:
                idx = self._name_index.setdefault(name, len(self.names))
                if idx == len(self.names):
                    self.names.append(name)
        return idx

    def call(self, name: str, fn: Callable, args=(), kwargs=None, parent: Optional[int] = None, count=None):
        """Run fn inside a span; count(counts, args, kwargs, result, seconds) runs after it."""
        stack, spans, counts = self._state()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        idx = self._index(name)
        stack.append(sid)
        t0 = perf_counter()
        try:
            out = fn(*args, **(kwargs or {}))
        finally:
            t1 = perf_counter()
            stack.pop()
            spans.extend((sid, parent, self.op, idx, t0, t1))
        if count is not None:
            count(counts, args, kwargs or {}, out, t1 - t0)
        return out

    def current(self) -> int:
        stack = self._state()[0]
        return stack[-1] if stack else 0

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace owner.attr by a traced wrapper; name may be a function of the call's arguments."""
        original = getattr(owner, attr)
        tracer = self
        static = isinstance(name, str)

        def traced(*args, **kwargs):
            label = name if static else name(args, kwargs)
            return tracer.call(label, original, args, kwargs, count=count)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def wrap_run_chunked(self, owner, name: str) -> None:
        """Trace run_chunked and the worker it runs, so pool-thread spans keep their parent."""
        original = owner.run_chunked
        tracer = self

        def run_chunked(worker, reps, threads):
            def inner():
                parent = tracer.current()

                def chunk(lo, hi):
                    return tracer.call(name, worker, (lo, hi), parent=parent, count=_busy)

                return original(chunk, reps, threads)

            width = (os.cpu_count() or 1) if threads == 0 else threads
            return tracer.call(name, inner, count=lambda c, a, k, o, dt: c.update({"_capacity_s": width * dt}))

        self._patches.append((owner, "run_chunked", original))
        owner.run_chunked = run_chunked

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def rows(self) -> np.ndarray:
        """All spans as an (n, 6) float array in the SID..END column order."""
        parts = [np.frombuffer(spans, dtype=float) for spans, _ in self._buffers if len(spans)]
        if not parts:
            return np.empty((0, 6))
        return np.concatenate(parts).reshape(-1, 6)

    def counts(self) -> Counter:
        total = Counter()
        for _, counts in self._buffers:
            total.update(counts)
        return total


def _busy(counts, args, kwargs, out, seconds) -> None:
    counts["montecarlo.chunk_busy_s"] += seconds


def self_times(rows: np.ndarray, names: List[str]) -> Dict[str, float]:
    """Self time per span name, each instant split between the spans self-active in it."""
    if rows.shape[0] == 0:
        return {}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, parent, start, end in rows[:, [SID, PARENT, START, END]].tolist():
        children.setdefault(int(parent), []).append((start, end))
    starts, ends, owners = [], [], []
    for i, (sid, start, end) in enumerate(rows[:, [SID, START, END]].tolist()):
        for lo, hi in _gaps(start, end, children.get(int(sid), ())):
            starts.append(lo)
            ends.append(hi)
            owners.append(i)
    if not starts:
        return {}
    starts, ends = np.asarray(starts), np.asarray(ends)
    points = np.unique(np.concatenate([starts, ends]))
    i_lo = np.searchsorted(points, starts)
    i_hi = np.searchsorted(points, ends)
    delta = np.zeros(points.size)
    np.add.at(delta, i_lo, 1.0)
    np.add.at(delta, i_hi, -1.0)
    active = np.cumsum(delta)[:-1]
    share = np.divide(np.diff(points), active, out=np.zeros(active.size), where=active > 0)
    cum = np.concatenate([[0.0], np.cumsum(share)])
    per_interval = cum[i_hi] - cum[i_lo]
    name_of = rows[np.asarray(owners), NAME].astype(int)
    totals = np.bincount(name_of, weights=per_interval, minlength=len(names))
    return {names[i]: float(t) for i, t in enumerate(totals) if t}


def _gaps(start: float, end: float, covers: Iterable[Tuple[float, float]]):
    """Parts of [start, end] not covered by any of the intervals."""
    cursor = start
    for lo, hi in sorted(covers):
        lo, hi = max(lo, start), min(hi, end)
        if lo > cursor:
            yield cursor, lo
        cursor = max(cursor, hi)
    if end > cursor:
        yield cursor, end


def _by_class(prefix: str):
    def name(args, kwargs):
        profile = args[0] if args else kwargs["profile"]
        return f"{prefix}.{DECAY_CLASS[type(profile.decay).__name__]}"

    return name


def _add(key: str, value: Callable):
    def count(counts, args, kwargs, out, seconds):
        counts[key] += value(args, kwargs, out)

    return count


def _z_terms(counts, args, kwargs, out, seconds) -> None:
    profile = args[0] if args else kwargs["profile"]
    counts[f"bounds.terms.{DECAY_CLASS[type(profile.decay).__name__]}"] += out.truncation_terms
    counts["bounds.capped_calls"] += out.truncation_terms >= CAPPED_TERMS


def _report_bytes(counts, args, kwargs, out, seconds) -> None:
    argv = list(args[0] if args else kwargs["argv"])
    path = argv[argv.index("--out") + 1]
    counts["cli.report_bytes"] += os.path.getsize(path)


def _sampled(counts, args, kwargs, out, seconds) -> None:
    spec, n, grid = args[:3]
    counts["fieldgen.sample_calls"] += 1
    # the (n x k) @ (k x g) projection, computed from the shapes
    counts["fieldgen.project_flops"] += 2 * int(n) * spec.n_components * grid.size


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross; Tracer.restore() undoes it."""
    import cltlab
    from cltlab import cli, fieldgen, limitlaw, montecarlo, verify

    streams = _add("rng.streams", lambda a, k, o: 1)
    jittered = _add("limitlaw.jittered", lambda a, k, o: o.jitter > 0.0)
    reps = _add("montecarlo.reps", lambda a, k, o: len(o))
    eval_name = _by_class("bounds.eval_s")

    table = [
        # the benchmark's own call sites
        (cltlab, "verify_clt", "verify.self_s", None),
        (cltlab, "z_value", eval_name, _z_terms),
        (cltlab, "lp_moment_bound", eval_name, None),
        (cltlab, "nachapetyan_k", eval_name, None),
        (cltlab, "optimize_over_v", "bounds.optimize_s", None),
        (cltlab, "chebyshev_tail", "bounds.other_s", None),
        (cltlab, "utev_a", "bounds.other_s", None),
        (cltlab, "ku_check", "bounds.other_s", None),
        (cli, "main", "cli.self_s", _report_bytes),
        # calls between the package's modules
        (cli, "verify_moment_bound", "verify.self_s", None),
        (cli, "verify_superstrong", "verify.self_s", None),
        (cli, "limit_covariance", "limitlaw.factor_s", None),
        (cli, "factorize_covariance", "limitlaw.factor_s", jittered),
        (verify, "ks_two_sample", "verify.ks_s", _add("verify.ks_calls", lambda a, k, o: 1)),
        (verify, "sup_v_norm", "verify.sup_v_norm_s", None),
        (verify, "lp_moment_bound", eval_name, None),
        (verify, "nachapetyan_k", eval_name, None),
        (verify, "nachapetyan_bound", "bounds.other_s", None),
        (verify, "limit_covariance", "limitlaw.factor_s", None),
        (verify, "sample_limit_norms", "limitlaw.sample_s", reps),
        (verify, "replicate_norms", "montecarlo.self_s", reps),
        (verify, "summarize_norm_powers", "montecarlo.self_s", None),
        (verify, "seed_path", "rng.self_s", streams),
        (montecarlo, "sample_sequence", "fieldgen.project_s", _sampled),
        (montecarlo, "seed_path", "rng.self_s", streams),
        (montecarlo, "lp_norms", "discretize.lp_norms_s", _add("discretize.norm_rows", lambda a, k, o: len(o))),
        (limitlaw, "stream", "rng.self_s", streams),
        (limitlaw, "lp_norms", "discretize.lp_norms_s", _add("discretize.norm_rows", lambda a, k, o: len(o))),
        (limitlaw, "factorize_covariance", "limitlaw.factor_s", jittered),
        (fieldgen, "stream", "rng.self_s", streams),
        (fieldgen.IidNormal, "sample_component", "fieldgen.draw_s.iid_normal", None),
        (fieldgen.IidRademacher, "sample_component", "fieldgen.draw_s.iid_rademacher", None),
        (fieldgen.MaQ, "sample_component", "fieldgen.draw_s.ma_q", None),
        (fieldgen.Ar1, "sample_component", "fieldgen.draw_s.ar1", None),
    ]
    for owner, attr, name, count in table:
        tracer.wrap(owner, attr, name, count)
    tracer.wrap_run_chunked(montecarlo, "montecarlo.self_s")
    tracer.wrap_run_chunked(verify, "montecarlo.self_s")
    tracer.wrap_run_chunked(limitlaw, "limitlaw.sample_s")
