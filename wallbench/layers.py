"""Per-layer accounting of one traced solve.

Two sources of spans feed it:

* the program's own ``trace="wall"`` spans (collectives with their waits,
  frame flushes, ``spmv``/``expand``/``fold``, ``init:*``, ``bfs_iter``,
  ``auction_round``, ``checkpoint`` ...);
* benchmark-side shims around public functions of ``runtime``, ``distmat``,
  ``kernels``/``sparse`` and ``matching``.  A shim times the call and adds
  one complete span to the calling rank's own tracer, so the record travels
  back with the rank's trace on both backends (forked ranks ship their
  spans to the parent) and no new span sites are needed inside ``src/``.

Every span gets a layer; a layer's time is its spans' *self* time (duration
minus the children it encloses), with blocking time split out as waiting.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

import repro.distmat.ops as dist_ops
import repro.matching.auction as auction
import repro.matching.mcm_dist as mcm_dist
import repro.matching.mwm_dist as mwm_dist
import repro.matching.reference.auction_twin as auction_twin
import repro.runtime.executor as executor
import repro.sparse.csc as sparse_csc
import repro.sparse.dcsc as sparse_dcsc
import repro.sparse.semiring as semiring
from repro.distmat.spmat import DistSparseMatrix
from repro.distmat.wspmat import DistWeightedMatrix
from repro.runtime.checkpoint import CheckpointStore, FileCheckpointStore
from repro.runtime.trace import MAIN_TRACK, Tracer

#: span name (program spans) -> layer
PROGRAM_SPANS = {
    "spmv": "distmat.spmv", "spmv_bottomup": "distmat.spmv",
    "expand": "distmat.spmv", "fold": "distmat.spmv", "pull": "distmat.spmv",
    "unvisited_exchange": "distmat.spmv",
    "init:greedy": "matching.init", "init:mindegree": "matching.init",
    "init:karp-sipser": "matching.init",
    "augment:level": "matching.augment", "augment:path": "matching.augment",
    "phase": "matching.loop", "bfs_iter": "matching.loop",
    "auction_round": "matching.loop", "bid": "matching.loop",
    "resolve": "matching.loop",
    "checkpoint": "runtime.checkpoint",
}
#: span category -> layer (collective self time excludes its waits)
PROGRAM_CATS = {"comm": "runtime.collective", "flush": "runtime.flush"}

#: (module or class, attribute, layer): every place a caller binds the
#: function by name gets its own patch, or calls through that name would
#: bypass the shim
SHIMS = [
    *[(dist_ops, f, "runtime.pack")
      for f in ("pack_arrays", "unpack_arrays", "pack_indices", "unpack_indices")],
    (CheckpointStore, "save", "runtime.checkpoint"),
    (FileCheckpointStore, "save", "runtime.checkpoint"),
    (DistSparseMatrix, "scatter_from_root", "distmat.build"),
    (DistWeightedMatrix, "scatter_from_root", "distmat.build"),
    *[(m, f, "distmat.route")
      for m in (dist_ops, mcm_dist)
      for f in ("route", "invert_route", "allgather_values")],
    (mwm_dist, "route", "distmat.route"),
    (mwm_dist, "allgather_arrays", "distmat.route"),
    (semiring, "keyed_min_scatter", "kernels"),
    (sparse_dcsc, "pull_candidates", "kernels"),
    (sparse_csc, "ragged_gather_flat", "kernels"),
    (semiring, "reduce_candidates", "kernels"),
    (dist_ops, "reduce_candidates", "kernels"),
    (auction, "reduce_candidates", "kernels"),
    (sparse_dcsc.DCSC, "explode_cols", "kernels"),
    (sparse_dcsc.DCSC, "pull_rows", "kernels"),
    *[(m, f, "matching.auction_kernels")
      for m in (mwm_dist, auction_twin)
      for f in ("compute_bids", "resolve_bids")],
    # DistWeightedMatrix.top2 imports top2_cols from the module at call time
    (auction, "top2_cols", "matching.auction_kernels"),
    (auction_twin, "top2_cols", "matching.auction_kernels"),
    (mwm_dist, "combine_partials", "matching.auction_kernels"),
]

TIME_LAYERS = (
    "runtime.wait", "runtime.collective", "runtime.flush", "runtime.pack",
    "runtime.checkpoint", "distmat.spmv", "distmat.route", "distmat.build",
    "kernels", "matching.init", "matching.augment", "matching.loop",
    "matching.auction_kernels",
)


class Shims:
    """Installs the shims for the duration of a ``with shims.installed()``.

    ``spmd_walls`` collects the wall time of every ``spmd`` launch;
    ``bidders`` the bidder count of every ``compute_bids`` call made
    outside a traced rank (the serial twin's rounds).
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self.spmd_walls: list[float] = []
        self.bidders: list[int] = []

    def _wrap(self, fn, layer: str, name: str):
        local = self._local

        @wraps(fn)
        def shim(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer = getattr(local, "tracer", None)
                if tracer is not None:
                    tracer.add_complete(
                        name, ts=t0, dur=time.perf_counter() - t0, cat="shim",
                        layer=layer,
                    )
        return shim

    def _wrap_spmd(self, fn):
        @wraps(fn)
        def shim(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spmd_walls.append(time.perf_counter() - t0)
        return shim

    def _wrap_bids(self, fn):
        local = self._local

        @wraps(fn)
        def shim(best, *args, **kwargs):
            if getattr(local, "tracer", None) is None:
                self.bidders.append(int(best.size))
            return fn(best, *args, **kwargs)
        return shim

    def _wrap_begin(self, fn):
        # every rank's first span tells the shims which tracer the rank's
        # thread (or forked process) writes to
        local = self._local

        @wraps(fn)
        def shim(tracer, *args, **kwargs):
            local.tracer = tracer
            return fn(tracer, *args, **kwargs)
        return shim

    @contextmanager
    def installed(self):
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            patch(Tracer, "begin", self._wrap_begin(Tracer.begin))
            for owner, attr, layer in SHIMS:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, layer, attr))
                else:
                    new = self._wrap(raw, layer, attr)
                patch(owner, attr, new)
            for owner in (mcm_dist, mwm_dist, executor):
                patch(owner, "spmd", self._wrap_spmd(owner.spmd))
            patch(auction_twin, "compute_bids", self._wrap_bids(auction_twin.compute_bids))
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)
            self._local.tracer = None


def layer_of(span) -> "str | None":
    if span.cat == "shim":
        return span.args["layer"]
    return PROGRAM_CATS.get(span.cat) or PROGRAM_SPANS.get(span.name)


def rank_layers(spans, idle_wait: float) -> "tuple[dict[str, float], float, float]":
    """Self time per layer of one rank's main-lane spans.

    Returns ``(layers, extent, covered)``: the rank's first-span-to-last
    extent and the part of it some span covers.  Spans nest by interval;
    blocking time (``args["wait"]``) moves from its span to
    ``runtime.wait``.
    """
    main = sorted(
        (s for s in spans if s.track == MAIN_TRACK),
        key=lambda s: (s.ts, -s.dur, s.bseq),
    )
    out: dict[str, float] = defaultdict(float)
    out["runtime.wait"] += idle_wait
    if not main:
        return out, 0.0, 0.0
    child_time = [0.0] * len(main)
    stack: list[int] = []
    covered = 0.0
    for i, sp in enumerate(main):
        while stack and main[stack[-1]].t1 <= sp.ts:
            stack.pop()
        if stack:
            child_time[stack[-1]] += sp.dur
        else:
            covered += sp.dur
        stack.append(i)
    for sp, inner in zip(main, child_time):
        layer = layer_of(sp) or "other"
        wait = sp.wait
        out[layer] += max(0.0, sp.dur - inner - wait)
        out["runtime.wait"] += wait
    extent = max(s.t1 for s in main) - main[0].ts
    return out, extent, covered


def solve_layers(trace, spmd_wall: float) -> dict[str, float]:
    """Rank-mean layer seconds of one traced solve, plus the launch gap,
    shim call counts and the unattributed share of the rank extent."""
    totals: dict[str, float] = defaultdict(float)
    extents, uncovered = [], []
    idle = trace.meta.get("idle_wait") or [0.0] * trace.nranks
    kernel_calls = 0
    for r in range(trace.nranks):
        layers, extent, covered = rank_layers(trace.spans[r], idle[r])
        for k, v in layers.items():
            totals[k] += v
        extents.append(extent)
        # waits outside every span are already runtime.wait
        uncovered.append(max(0.0, extent - covered - idle[r]) + layers.get("other", 0.0))
        kernel_calls += sum(
            1 for s in trace.spans[r]
            if s.cat == "shim" and s.args["layer"] == "kernels"
        )
    n = trace.nranks
    out = {k: totals.get(k, 0.0) / n for k in TIME_LAYERS}
    mean_extent = sum(extents) / n
    out["runtime.launch"] = max(0.0, spmd_wall - mean_extent)
    out["kernels.calls"] = kernel_calls
    out["unattributed_frac"] = (sum(uncovered) / n) / mean_extent if mean_extent else 0.0
    return out
