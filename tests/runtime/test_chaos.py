"""Acceptance matrix: seeded chaos runs recover the fault-free answer.

Mirrors the CI chaos job: for every (seed, grid, plan kind) cell the
resilient driver must finish with the same cardinality as the fault-free
run, produce a valid maximum matching, and (for crash plans) record at
least one restart.
"""

import json
import time

import numpy as np
import pytest

from repro.graphs.rmat import er
from repro.matching.mcm_dist import run_mcm_dist
from repro.matching.validate import cardinality, is_valid_matching, verify_maximum
from repro.runtime import (
    CollectiveConfig,
    FaultPlan,
    RankKilledError,
    run_mcm_dist_resilient,
    spmd,
)
from repro.sparse import CSC

GRIDS = [(1, 1), (2, 2), (3, 3)]
SEEDS = [0, 1, 2]


@pytest.fixture(scope="module")
def graph():
    coo = er(scale=6, seed=42)
    return coo, CSC.from_coo(coo)


@pytest.fixture(scope="module")
def baseline(graph):
    coo, _ = graph
    return {grid: cardinality(run_mcm_dist(coo, *grid)[0]) for grid in GRIDS}


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
@pytest.mark.parametrize("seed", SEEDS)
def test_crash_at_every_phase_boundary_recovers(graph, baseline, grid, seed):
    coo, a = graph
    plan = FaultPlan.parse("crash:rank=any,at=phase:every", seed=seed)
    mate_r, mate_c, stats = run_mcm_dist_resilient(
        coo, *grid, faults=plan, max_restarts=30
    )
    assert stats.restarts >= 1
    assert cardinality(mate_r) == baseline[grid]
    assert is_valid_matching(a, mate_r, mate_c)
    assert verify_maximum(a, mate_r, mate_c)


@pytest.mark.parametrize("seed", SEEDS)
def test_transient_plan_is_transparent(graph, baseline, seed):
    """Retried sends never change the answer — same mates, zero restarts."""
    coo, _ = graph
    plain = run_mcm_dist(coo, 2, 2)
    plan = FaultPlan.parse("transient:p=0.05", seed=seed)
    mate_r, mate_c, stats = run_mcm_dist_resilient(coo, 2, 2, faults=plan)
    assert np.array_equal(mate_r, plain[0])
    assert np.array_equal(mate_c, plain[1])
    assert stats.restarts == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_delay_plan_is_transparent(graph, baseline, seed):
    """Legal reorderings cannot be observed by a deterministic SPMD
    program: the mate vectors are bit-identical to the fault-free run."""
    coo, _ = graph
    plain = run_mcm_dist(coo, 2, 2)
    plan = FaultPlan.parse("delay:p=0.3", seed=seed)
    mate_r, mate_c, stats = run_mcm_dist_resilient(coo, 2, 2, faults=plan)
    assert np.array_equal(mate_r, plain[0])
    assert np.array_equal(mate_c, plain[1])
    assert stats.restarts == 0


def test_mixed_plan_recovers(graph, baseline):
    coo, a = graph
    plan = FaultPlan.parse(
        "crash:rank=any,at=phase:every;transient:p=0.02;delay:p=0.2", seed=7
    )
    mate_r, mate_c, stats = run_mcm_dist_resilient(
        coo, 2, 2, faults=plan, max_restarts=30
    )
    assert stats.restarts >= 1
    assert cardinality(mate_r) == baseline[(2, 2)]
    assert verify_maximum(a, mate_r, mate_c)


def test_same_seed_and_plan_reproduce_the_same_restart_trajectory(graph):
    """Determinism at the MCM level: two resilient runs under the same
    (seed, plan) take identical restart trajectories and land on identical
    mate vectors.  (Bit-for-bit identity of the injected event logs is
    asserted at the spmd level in test_faults.py.)"""
    coo, _ = graph

    def run(seed):
        plan = FaultPlan.parse(
            "crash:rank=any,at=phase:every;transient:p=0.03", seed=seed
        )
        mate_r, _, stats = run_mcm_dist_resilient(
            coo, 2, 2, faults=plan, max_restarts=30
        )
        return mate_r, stats.restarts, stats.phases_replayed

    mates_a, restarts_a, replayed_a = run(99)
    mates_b, restarts_b, replayed_b = run(99)
    assert np.array_equal(mates_a, mates_b)
    assert (restarts_a, replayed_a) == (restarts_b, replayed_b)
    assert restarts_a >= 1


def test_chaos_trace_merges_attempts_with_explicit_restart_spans(graph, baseline):
    """Tracing under fault injection: every attempt's timeline — the killed
    one included — lands in one merged trace with the rank death and each
    restart visible as explicit spans, and the export is valid JSON with
    balanced begin/end pairs."""
    from repro.runtime import DistTrace

    coo, _ = graph
    plan = FaultPlan.parse("crash:rank=any,at=phase:every", seed=1)
    mate_r, _, stats = run_mcm_dist_resilient(
        coo, 2, 2, faults=plan, max_restarts=30, trace="ticks"
    )
    assert stats.restarts >= 1
    assert cardinality(mate_r) == baseline[(2, 2)]
    trace = stats.trace
    assert trace is not None
    fault_spans = [sp for sp in trace.all_spans() if sp.cat == "fault"]
    names = {sp.name for sp in fault_spans}
    assert "restart" in names  # the seam between merged attempts
    assert any(n.startswith("fault:") for n in names)  # the rank death
    # one restart seam per recovery, stamped on every rank
    seams = [sp for sp in fault_spans if sp.name == "restart"]
    assert len(seams) == stats.restarts * trace.nranks
    assert len(trace.meta["attempts"]) == stats.restarts
    # a killed attempt leaves truncated spans, and they are all closed
    assert any(sp.args.get("truncated") for sp in trace.all_spans())
    doc = json.loads(json.dumps(trace.to_chrome()))
    back = DistTrace.from_chrome(doc)  # raises TraceError if unbalanced
    assert back.nspans == trace.nspans


# -- mid-collective crashes: a rank dying partway through a collective's
# logical schedule must not strand peers waiting on its frames -------------


def test_crash_mid_pairwise_alltoallv_aborts_all_ranks_promptly():
    """Rank 2's 2nd send is the 2nd of its 3 pairwise-exchange sends
    (p=4) — it dies mid-schedule, before its row reaches the hub.  Peers
    blocked in the star wave must unwind via abort propagation, well
    inside the deadlock window, and the victim's error must surface."""

    def main(comm):
        payloads = [np.arange(3, dtype=np.int64) + comm.rank for _ in range(comm.size)]
        comm.alltoallv(payloads)
        comm.barrier()
        return comm.rank

    plan = FaultPlan.parse("crash:rank=2,at=send:2", seed=0)
    t0 = time.monotonic()
    with pytest.raises(RankKilledError, match=r"\[spmd rank 2\]"):
        spmd(4, main, faults=plan, timeout=20)
    assert time.monotonic() - t0 < 10  # abort propagation, not a timeout


def test_crash_mid_tree_reduce_aborts_all_ranks_promptly():
    """In the p=8 binomial reduce ledger, rank 6 forwards its partial
    (rank 7's contribution folded in) to rank 4; crashing that forward
    (its 1st send) kills an interior tree node mid-reduction.  The root
    waiting on its frame must not deadlock — abort propagates instead."""

    def main(comm):
        comm.reduce(np.arange(4, dtype=np.int64) * comm.rank, root=0)
        comm.barrier()
        return comm.rank

    plan = FaultPlan.parse("crash:rank=6,at=send:1", seed=0)
    t0 = time.monotonic()
    with pytest.raises(RankKilledError, match=r"\[spmd rank 6\]"):
        spmd(8, main, faults=plan, timeout=20,
             comm_config=CollectiveConfig(reduce="binomial"))
    assert time.monotonic() - t0 < 10
