"""Unit tests for the critical-path analyzer on a hand-built trace.

The fixture is small enough to verify every reported number by hand:

rank 0:  phase 1 [0, 10)                      self 10-7-2 = 1
           spmv [1, 8)   dur 7                self 7-5  = 2
             allgather [2, 7) dur 5, wait 3   self        5
           augment [8, 10) dur 2              self        2
rank 1:  phase 1 [0, 4)                       self 4-2  = 2
           spmv [0.5, 2.5) dur 2, wait 1      self        2

Critical rank is 0 (10 vs 4), skew (10-4)/10 = 0.6, and the largest-child
descent is phase > spmv > allgather.
"""

import json

from repro.runtime.trace import DistTrace, Span
from repro.simulate.critpath import analyze, format_report


def _span(name, cat, rank, ts, dur, bseq, eseq, **args):
    return Span(name=name, cat=cat, rank=rank, ts=ts, dur=dur,
                args=args, bseq=bseq, eseq=eseq)


def _fixture() -> DistTrace:
    r0 = [
        _span("allgather", "comm", 0, 2.0, 5.0, 3, 4, alg="dissemination",
              words=7, wait=3.0),
        _span("spmv", "kernel", 0, 1.0, 7.0, 2, 5),
        _span("augment", "phase", 0, 8.0, 2.0, 6, 7),
        _span("phase", "phase", 0, 0.0, 10.0, 1, 8, phase=1),
    ]
    r1 = [
        _span("spmv", "kernel", 1, 0.5, 2.0, 2, 3, wait=1.0),
        _span("phase", "phase", 1, 0.0, 4.0, 1, 4, phase=1),
        _span("restart", "fault", 1, 11.0, 0.0, 5, 6, attempt=1),
    ]
    return DistTrace(2, [r0, r1], meta={
        "clock": "ticks",
        "idle_wait": [0.0, 1.5],
        "attempts": [{"at": 11.0, "attempt": 1}],
    })


def test_analyze_reports_hand_computed_numbers():
    rep = analyze(_fixture(), top=3)
    assert rep["nranks"] == 2
    assert rep["nspans"] == 7
    assert rep["restarts"] == 1

    r0, r1 = rep["ranks"]
    assert r0["makespan"] == 10.0
    assert r0["wait"] == 3.0
    assert r0["wait_fraction"] == 0.3
    assert r1["makespan"] == 11.0  # through the restart marker
    assert r1["wait"] == 1.0 + 1.5  # span wait + idle wait

    (ph,) = rep["phases"]
    assert ph["label"] == "phase 1"
    assert ph["critical_rank"] == 0
    assert ph["dur_max"] == 10.0
    assert ph["dur_min"] == 4.0
    assert ph["skew"] == 0.6
    assert ph["critical_path"] == ["phase", "spmv", "allgather"]
    assert ph["dominant"]["name"] == "allgather"
    assert ph["dominant"]["self"] == 5.0

    # job-wide self times: allgather 5, spmv 2+2, phase 1+2, augment 2
    tops = {t["name"]: t["self"] for t in rep["top_spans"]}
    assert tops == {"allgather": 5.0, "spmv": 4.0, "phase": 3.0}
    assert rep["top_spans"][0]["name"] == "allgather"

    assert rep["faults"] == [
        {"name": "restart", "rank": 1, "ts": 11.0, "args": {"attempt": 1}}
    ]
    assert rep["comm_words_by_op"] == {"allgather": 7}
    json.dumps(rep)  # JSON-clean


def test_format_report_renders_every_section():
    rep = analyze(_fixture(), top=3)
    text = format_report(rep)
    assert "2 rank(s)" in text
    assert "1 restart(s)" in text
    assert "phase 1" in text
    assert "phase > spmv > allgather" in text
    assert "[allgather self=5]" in text  # tick times print as integers
    assert "faults / restarts:" in text
    assert "allgather=7" in text


def test_round_trip_through_chrome_preserves_the_report():
    trace = _fixture()
    back = DistTrace.from_chrome(json.loads(json.dumps(trace.to_chrome())))
    a, b = analyze(trace, top=3), analyze(back, top=3)
    assert a["phases"] == b["phases"]
    assert a["top_spans"] == b["top_spans"]
    assert a["comm_words_by_op"] == b["comm_words_by_op"]


def _wall_fixture() -> DistTrace:
    """The tick fixture's shape on a microsecond wall clock (seconds)."""
    us = 1e-6
    r0 = [
        _span("allgather", "comm", 0, 2.0 * us, 5.0 * us, 3, 4, words=7,
              wait=3.0 * us),
        _span("spmv", "kernel", 0, 1.0 * us, 7.0 * us, 2, 5),
        _span("phase", "phase", 0, 0.0, 10.0 * us, 1, 6, phase=1),
    ]
    r1 = [_span("phase", "phase", 1, 0.0, 4.0 * us, 1, 2, phase=1)]
    return DistTrace(2, [r0, r1], meta={"clock": "wall"})


def test_format_report_scales_sub_second_wall_times():
    """A µs-scale wall trace must not report makespan, wait and self
    time as 0.0: wall seconds print in s/ms/µs with 3 significant
    digits."""
    text = format_report(analyze(_wall_fixture(), top=3))
    assert "makespan=10.0µs" in text
    assert "[allgather self=5.00µs]" in text
    assert "wait=3.00µs" in text
    rank0 = next(line for line in text.splitlines()
                 if line.split()[:1] == ["0"])
    assert rank0.split()[1:3] == ["10.0µs", "3.00µs"]
