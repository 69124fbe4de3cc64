"""Critical-path analysis of a merged span trace.

The tracer (:mod:`repro.runtime.trace`) records *what happened when* on
every rank; this module answers the questions the paper's per-phase
breakdowns (Figs. 4–9) are built from: which rank bounded each phase, what
that rank actually spent the time on, how much of every rank's timeline was
blocking, and how skewed the grid was.  It is a pure consumer — it replays
a :class:`~repro.runtime.trace.DistTrace` (in memory or reloaded from a
Chrome trace-event file) and never touches the runtime.

``analyze`` returns a plain JSON-ready dict; ``format_report`` renders it
as the text table behind ``repro trace-report``.

Definitions
-----------

self time
    A span's duration minus its main-lane children's durations — the time
    attributable to the span itself.  Nesting is reconstructed from the
    tracer's begin/end sequence numbers, so tick-clock traces (where a
    parent and child can share a timestamp) resolve exactly.

phase segment
    A top-level algorithm span: ``init:*`` or one ``phase`` span per
    matching phase (cat ``phase``).  Spans outside any segment (epilogue
    collectives, fault markers) aggregate under ``(outside)``.

critical path
    Within a phase, on the rank whose segment ran longest: the chain of
    largest-child descents from the segment span to a leaf — i.e. the
    nesting stack that bounded the phase (``phase > bfs_iter > spmv >
    fold``).

skew
    ``(max - min) / max`` over the per-rank durations of one segment; 0
    means perfectly balanced ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..runtime.trace import MAIN_TRACK, DistTrace, Span


@dataclass
class _Node:
    """One span plus its main-lane children (nesting forest node)."""

    span: Span
    children: "list[_Node]" = field(default_factory=list)

    @property
    def self_time(self) -> float:
        return max(0.0, self.span.dur - sum(c.span.dur for c in self.children))


def _build_forest(spans: list[Span]) -> list[_Node]:
    """Reconstruct one rank's main-lane nesting from begin/end sequence
    numbers (span i encloses span j iff bseq_i < bseq_j and eseq_j <
    eseq_i — exact even when a tick clock hands out equal timestamps)."""
    main = sorted((sp for sp in spans if sp.track == MAIN_TRACK),
                  key=lambda sp: sp.bseq)
    roots: list[_Node] = []
    stack: list[_Node] = []
    for sp in main:
        node = _Node(sp)
        while stack and stack[-1].span.eseq < sp.bseq:
            stack.pop()
        if stack:
            stack[-1].children.append(node)
        else:
            roots.append(node)
        stack.append(node)
    return roots


def _walk(nodes: list[_Node]) -> Iterator[_Node]:
    for n in nodes:
        yield n
        yield from _walk(n.children)


def _segment_label(span: Span) -> "str | None":
    """Phase-segment label for a top-level algorithm span, else None."""
    if span.cat != "phase":
        return None
    if span.name == "phase":
        return f"phase {span.args.get('phase', '?')}"
    if span.name.startswith("init:"):
        return span.name
    return None


def _critical_chain(node: _Node) -> list[str]:
    """Largest-child descent from ``node`` to a leaf."""
    chain = [node.span.name]
    while node.children:
        node = max(node.children, key=lambda c: c.span.dur)
        chain.append(node.span.name)
    return chain


def analyze(trace: DistTrace, top: int = 5) -> dict:
    """Replay ``trace`` into a JSON-ready report dict (see module doc)."""
    forests = [_build_forest(trace.spans[r]) for r in range(trace.nranks)]
    idle = trace.meta.get("idle_wait", [0.0] * trace.nranks)

    # -- per-rank wait-vs-work ----------------------------------------------
    ranks = []
    for r in range(trace.nranks):
        spans_r = trace.spans[r]
        t0 = min((sp.ts for sp in spans_r), default=0.0)
        t1 = max((sp.t1 for sp in spans_r), default=0.0)
        makespan = max(0.0, t1 - t0)
        wait = sum(sp.wait for sp in spans_r) + float(
            idle[r] if r < len(idle) else 0.0
        )
        ranks.append({
            "rank": r,
            "makespan": makespan,
            "wait": wait,
            "wait_fraction": (wait / makespan) if makespan > 0 else 0.0,
        })

    # -- phase segments ------------------------------------------------------
    # label -> {rank -> segment node}; labels keep first-encounter order
    segments: dict[str, dict[int, _Node]] = {}
    for r, forest in enumerate(forests):
        for node in _walk(forest):
            label = _segment_label(node.span)
            if label is not None:
                segments.setdefault(label, {})[r] = node

    phases = []
    for label, by_rank in segments.items():
        durs = {r: n.span.dur for r, n in by_rank.items()}
        crit_rank = max(durs, key=lambda r: (durs[r], -r))
        dmax, dmin = max(durs.values()), min(durs.values())
        crit = by_rank[crit_rank]
        # self time per span name on the critical rank, inside the segment
        by_name: dict[str, dict[str, float]] = {}
        for node in _walk([crit]):
            acc = by_name.setdefault(
                node.span.name, {"self": 0.0, "count": 0, "wait": 0.0}
            )
            acc["self"] += node.self_time
            acc["count"] += 1
            acc["wait"] += node.span.wait
        ranked = sorted(
            ({"name": name, **acc} for name, acc in by_name.items()),
            key=lambda d: -d["self"],
        )
        phases.append({
            "label": label,
            "dur_max": dmax,
            "dur_min": dmin,
            "critical_rank": crit_rank,
            "ranks_present": len(by_rank),
            "skew": ((dmax - dmin) / dmax) if dmax > 0 else 0.0,
            "critical_path": _critical_chain(crit),
            "dominant": ranked[0] if ranked else None,
            "top": ranked[:top],
        })

    # -- job-wide top spans by self time ------------------------------------
    totals: dict[str, dict[str, float]] = {}
    for forest in forests:
        for node in _walk(forest):
            acc = totals.setdefault(
                node.span.name, {"self": 0.0, "count": 0, "wait": 0.0}
            )
            acc["self"] += node.self_time
            acc["count"] += 1
            acc["wait"] += node.span.wait
    top_spans = sorted(
        ({"name": name, **acc} for name, acc in totals.items()),
        key=lambda d: -d["self"],
    )[:top]

    # fault:delay spans are injected-sleep markers (retry backoff, straggler
    # stalls) — there can be thousands, so they aggregate into an adversity
    # rollup instead of flooding the per-event fault listing
    faults = sorted(
        ({"name": sp.name, "rank": sp.rank, "ts": sp.ts, "args": dict(sp.args)}
         for sp in trace.all_spans()
         if sp.cat == "fault" and sp.name != "fault:delay"),
        key=lambda d: (d["ts"], d["rank"]),
    )
    adversity: dict[str, dict] = {}
    for sp in trace.all_spans():
        if sp.cat != "fault" or sp.name != "fault:delay":
            continue
        category = str(sp.args.get("category", "?"))
        acc = adversity.setdefault(
            category, {"seconds": 0.0, "count": 0, "by_rank": {}}
        )
        seconds = float(sp.args.get("seconds", sp.dur))
        acc["seconds"] += seconds
        acc["count"] += 1
        rank = int(sp.args.get("rank", sp.rank))
        acc["by_rank"][rank] = acc["by_rank"].get(rank, 0.0) + seconds

    return {
        "nranks": trace.nranks,
        "clock": trace.meta.get("clock", "?"),
        "nspans": trace.nspans,
        "makespan": trace.max_ts() - trace.min_ts(),
        "restarts": len(trace.meta.get("attempts", [])),
        "ranks": ranks,
        "phases": phases,
        "top_spans": top_spans,
        "faults": faults,
        "adversity": adversity,
        "comm_words_by_op": trace.comm_words_by_op(),
    }


def _fmt_t(v: float, clock: str) -> str:
    """A trace time in its clock's unit: wall seconds scaled to s/ms/µs
    with 3 significant digits, anything else (event ticks) as an integer."""
    if clock != "wall":
        return f"{v:,.0f}"
    if v == 0.0:
        return "0s"
    for scale, unit in ((1.0, "s"), (1e-3, "ms"), (1e-6, "µs")):
        if abs(v) >= scale:
            break
    x = v / scale
    return (f"{x:,.0f}" if abs(x) >= 100 else f"{x:#.3g}") + unit


def format_report(rep: dict) -> str:
    """Render an :func:`analyze` dict as the ``repro trace-report`` text."""
    clock = rep["clock"]

    def _fmt(v: float) -> str:
        return _fmt_t(v, clock)

    out = [
        f"trace: {rep['nranks']} rank(s), {rep['nspans']:,} spans, "
        f"clock={rep['clock']}, makespan={_fmt(rep['makespan'])}"
        + (f", {rep['restarts']} restart(s)" if rep["restarts"] else "")
    ]

    out.append("")
    out.append(f"{'rank':>4} {'makespan':>12} {'wait':>12} {'wait%':>6}")
    for r in rep["ranks"]:
        out.append(
            f"{r['rank']:>4} {_fmt(r['makespan']):>12} "
            f"{_fmt(r['wait']):>12} {r['wait_fraction'] * 100:>5.1f}%"
        )

    out.append("")
    out.append(f"{'phase':<14} {'dur(max)':>10} {'rank':>4} {'skew':>6}  "
               f"critical path (dominant self time)")
    for ph in rep["phases"]:
        dom = ph["dominant"]
        dom_txt = (f"{dom['name']} self={_fmt(dom['self'])}"
                   if dom else "-")
        out.append(
            f"{ph['label']:<14} {_fmt(ph['dur_max']):>10} "
            f"{ph['critical_rank']:>4} {ph['skew'] * 100:>5.1f}%  "
            f"{' > '.join(ph['critical_path'])}  [{dom_txt}]"
        )

    out.append("")
    out.append("top spans by self time:")
    for t in rep["top_spans"]:
        out.append(
            f"  {t['name']:<18} self={_fmt(t['self']):>12} "
            f"calls={t['count']:>6} wait={_fmt(t['wait'])}"
        )

    if rep["faults"]:
        out.append("")
        out.append("faults / restarts:")
        for f in rep["faults"]:
            out.append(f"  t={_fmt(f['ts'])} rank {f['rank']}: {f['name']}")

    adversity = rep.get("adversity") or {}
    if adversity:
        out.append("")
        out.append("injected adversity time:")
        for category, acc in sorted(adversity.items()):
            worst = max(acc["by_rank"], key=lambda r: acc["by_rank"][r])
            out.append(
                f"  {category:<16} {acc['seconds']:>10.4f}s over "
                f"{acc['count']:>6} sleep(s); worst rank {worst} "
                f"({acc['by_rank'][worst]:.4f}s)"
            )

    words = rep["comm_words_by_op"]
    if words:
        out.append("")
        out.append("traced words by op: " + ", ".join(
            f"{op}={w:,}" for op, w in sorted(words.items())
        ))
    return "\n".join(out)


def report_trace(trace: DistTrace, top: int = 5) -> str:
    """One-call text report (convenience for ``run_mcm_dist(trace=...)``)."""
    return format_report(analyze(trace, top=top))


__all__ = ["analyze", "format_report", "report_trace"]
