"""The superstep coalescer and the hub plans, engine on vs off.

Every collective and ``isend`` travels through the per-destination
coalescer, and each op has one physical plan (hub star, direct
root<->peers, or chain).  Turning the collective engine off
(``NAIVE_CONFIG``: naive ledgers and fold orders, no payload packing)
changes only the logical ledger — mate vectors must stay bit-identical —
and under either config physical frames must stay at or below logical
messages, strictly below once the grid is big enough for the hub plans
to engage (p ≥ 4).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.rmat import er, g500
from repro.matching.mcm_dist import run_mcm_dist
from repro.runtime.comm import DEFAULT_CONFIG, NAIVE_CONFIG

ENGINE_ON = DEFAULT_CONFIG
ENGINE_OFF = NAIVE_CONFIG

GRIDS = [(1, 1), (2, 2), (3, 3)]
INPUTS = {
    "er": lambda seed: er(6, seed=seed),
    "rmat": lambda seed: g500(6, seed=seed),
}


def _run(coo, pr, pc, backend, config, **kw):
    return run_mcm_dist(
        coo, pr, pc, backend=backend, comm_config=config, timeout=60, **kw
    )


def _assert_on_off_parity(coo, pr, pc, backend):
    mr_on, mc_on, st_on = _run(coo, pr, pc, backend, ENGINE_ON)
    mr_off, mc_off, st_off = _run(coo, pr, pc, backend, ENGINE_OFF)
    np.testing.assert_array_equal(mr_on, mr_off)
    np.testing.assert_array_equal(mc_on, mc_off)
    assert st_on.final_cardinality == st_off.final_cardinality
    for name, stats in (("engine", st_on), ("naive", st_off)):
        if pr * pc >= 4:
            # hub/star plans engaged: strictly fewer physical frames
            assert stats.frames < stats.comm_messages, (
                f"{pr}x{pc} {backend} {name}: {stats.frames} frames vs "
                f"{stats.comm_messages} messages — coalescer never engaged"
            )
        else:
            assert stats.frames <= stats.comm_messages
    return st_on


# -- the full deterministic grid: grids x inputs x backends -----------------

@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("pr,pc", GRIDS)
@pytest.mark.parametrize("graph", sorted(INPUTS))
def test_on_off_parity(graph, pr, pc, backend):
    _assert_on_off_parity(INPUTS[graph](1), pr, pc, backend)


# -- randomized: hypothesis walks seeds/shapes on the thread backend --------

@settings(max_examples=10, deadline=None)
@given(
    graph=st.sampled_from(sorted(INPUTS)),
    grid=st.sampled_from(GRIDS),
    seed=st.integers(0, 7),
)
def test_on_off_parity_randomized(graph, grid, seed):
    _assert_on_off_parity(INPUTS[graph](seed), *grid, "thread")


# -- frame-ledger observability ---------------------------------------------

def test_flush_spans_reconcile_with_frame_ledger():
    """Every coalesced frame is traced: the ``comm:flush`` spans' frame and
    word totals must equal the physical CommStats ledger exactly, while the
    logical span cross-check (``comm_words_by_key``) stays untouched."""
    coo = er(6, seed=1)
    _, _, stats = _run(coo, 2, 2, "thread", ENGINE_ON, trace="ticks")
    totals = stats.trace.flush_totals()
    assert totals["frames"] == stats.frames
    assert totals["words"] == stats.frame_words
    # each frame coalesces >= 1 physical entry (logical ledger messages
    # never reach the wire as such, so this counter is the physical batch
    # size, not comm_messages)
    assert totals["messages"] >= totals["frames"]
    # flush spans are physical observability, never logical ledger entries
    for key in stats.trace.comm_words_by_key():
        assert "flush" not in key


def test_direction_auto_overlap_parity():
    """The nonblocking direction-count overlap (iallreduce posted at the
    superstep tail, folded in each config's order) must preserve on/off
    parity under direction=auto, with the hub plans at least halving the
    physical message count at p=9."""
    coo = er(7, seed=1)
    mr_on, mc_on, st_on = _run(coo, 3, 3, "thread", ENGINE_ON, direction="auto")
    mr_off, mc_off, st_off = _run(coo, 3, 3, "thread", ENGINE_OFF, direction="auto")
    np.testing.assert_array_equal(mr_on, mr_off)
    np.testing.assert_array_equal(mc_on, mc_off)
    assert st_on.comm_by_alg["allreduce:doubling"]["calls"] == \
        st_off.comm_by_alg["allreduce:linear"]["calls"]
    assert 2 * st_on.frames <= st_on.comm_messages
    assert 2 * st_off.frames <= st_off.comm_messages
