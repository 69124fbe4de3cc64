"""MCM-DIST: the true SPMD distributed implementation of Algorithm 2.

Every function here runs *per rank* under the simulated MPI runtime: state
is rank-local (DCSC block, vector slices), all coordination goes through
collectives, routed all-to-alls and — for path-parallel augmentation —
one-sided RMA windows.  The code would run unchanged over mpi4py.

Correspondence to the paper:

====================================  =========================================
paper                                  here
====================================  =========================================
Algorithm 2 (MCM-DIST)                 :func:`mcm_dist_spmd`
Step 1 SpMV (expand/fold)              :func:`repro.distmat.ops.spmv`
Step 1, direction-optimized            :func:`repro.distmat.ops.spmv_bottomup`
                                       (+ ``direction="auto"`` switch via
                                       :func:`repro.distmat.ops.direction_edge_counts`)
Steps 2–4 SELECT/SET                   local NumPy on aligned slices
Step 5 INVERT to ``path_c``            :func:`repro.distmat.ops.invert_route`
Step 6 PRUNE (allgather of roots)      :func:`repro.distmat.ops.allgather_values`
Step 7 INVERT to next frontier         :func:`repro.distmat.ops.invert_route`
Algorithm 3 (level-parallel augment)   :func:`augment_level_spmd`
Algorithm 4 (path-parallel RMA)        :func:`augment_path_spmd_rma`
k < 2p² switch                          :func:`mcm_dist_spmd` per phase
distributed greedy init [21]           :func:`greedy_init_spmd`
====================================  =========================================

The driver :func:`run_mcm_dist` launches the whole job on a pr×pc grid of
simulated ranks and returns globally assembled mate vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distmat.distvec import DistDenseVec, DistVertexFrontier
from ..distmat.grid import ProcGrid
from ..distmat.ops import (
    allgather_values,
    direction_edge_counts,
    direction_edge_counts_begin,
    direction_edge_counts_finish,
    invert_route,
    route,
    spmv,
    spmv_bottomup,
)
from ..distmat.spmat import DistSparseMatrix
from ..runtime import Window, spmd
from ..runtime.checkpoint import Checkpoint, CheckpointStore
from ..runtime.rma import fence_all, free_all
from ..runtime.comm import SUM, Communicator
from ..runtime.trace import tspan
from ..sparse.coo import COO
from ..sparse.semiring import SR_MIN_PARENT, Semiring
from ..sparse.spvec import NULL
from .augment import choose_augment_mode


@dataclass
class DistStats:
    """Per-run counters reported by rank 0."""

    phases: int = 0
    iterations: int = 0
    augment_level_calls: int = 0
    augment_path_calls: int = 0
    initial_cardinality: int = 0
    final_cardinality: int = 0
    #: Step-1 direction tally (``topdown_steps + bottomup_steps == iterations``)
    topdown_steps: int = 0
    bottomup_steps: int = 0
    #: global edges the chosen directions examined across all Step-1 SpMVs
    edges_examined: int = 0
    #: grid-wide words sent on the column/row subcommunicators (expand/fold)
    #: and on every communicator combined, over the whole job
    expand_words: int = 0
    fold_words: int = 0
    total_words: int = 0
    #: grid-wide per-algorithm collective counters, summed over all ranks and
    #: the grid/row/column communicators: ``{"op:alg": {"calls", "messages",
    #: "words", "steps"}}`` (see :attr:`repro.runtime.comm.CommStats.by_alg`)
    comm_by_alg: "dict[str, dict[str, int]] | None" = None
    #: the logical/physical ledger split of the runtime, summed over all
    #: ranks and communicators: ``comm_messages`` counts every message of
    #: the selected algorithms' logical (round-based) schedules — the
    #: number BENCH gates and the trace cross-check price — while
    #: ``frames`` counts the coalesced deposits/ring writes of the fixed
    #: physical plans that actually crossed the fabric
    comm_messages: int = 0
    frames: int = 0
    frame_words: int = 0
    #: recovery counters, filled by ``run_mcm_dist_resilient``: fabric
    #: rebuilds after failures, completed phases re-executed because they
    #: post-dated the restart checkpoint, and 8-byte words written to the
    #: checkpoint store across all incarnations of the job
    restarts: int = 0
    phases_replayed: int = 0
    checkpoint_words: int = 0
    #: deterministic model-time service of the successful attempt under a
    #: fault injector: the slowest rank's priced-message ledger (through
    #: straggler/disruption factors and the degraded-link α-β model).
    #: Failed attempts are excluded — the scenario driver reconstructs
    #: their lost work from ``restart_spans`` x a crash-free twin's
    #: ``model_phase_ledger``, because a crashed attempt's own counters
    #: depend on which victims the abort unwinds first
    model_seconds: float = 0.0
    #: phase boundary -> max per-rank model-second ledger entering it
    #: (successful attempt; None without a fault injector)
    model_phase_ledger: "dict[int, float] | None" = None
    #: (resume_phase, death_phase) per failed attempt of a resilient run
    restart_spans: "tuple[tuple[int, int], ...]" = ()
    #: filled by :func:`run_mcm_dist` when the job ran with ``verify=True``
    verify_summary: "dict[str, int] | None" = None
    #: weighted-auction counters (``run_mwm_dist``; zero for cardinality
    #: jobs): synchronized bidding rounds across all ε-phases, bids placed
    #: (one per active bidder per round, globally summed), item price
    #: increases accepted, and 8-byte words spent replicating accepted
    #: prices along the grid rows
    auction_rounds: int = 0
    bids_placed: int = 0
    price_updates: int = 0
    price_words: int = 0
    #: weighted objective of the reported matching (original weights), its
    #: weight scale (max edge weight) and the ε the schedule was built for
    matching_weight: float = 0.0
    weight_scale: float = 0.0
    epsilon: float = 0.0

    # The merged span timeline (:class:`repro.runtime.trace.DistTrace`) when
    # the job ran with ``trace=...``.  Deliberately a plain class attribute,
    # NOT a dataclass field: ``dataclasses.asdict(stats)`` (the CLI's
    # ``--stats-json``) must not serialize it, and a disabled tracer must add
    # zero entries to DistStats.
    trace = None
    # Final doubled-graph item prices of a weighted auction job — a class
    # attribute for the same asdict/JSON reason as ``trace``; tests read it
    # to assert ε-complementary slackness.
    auction_prices = None


# ---------------------------------------------------------------------------
# distributed greedy initialization (the matrix-algebraic greedy of [21])
# ---------------------------------------------------------------------------

def greedy_init_spmd(
    A: DistSparseMatrix,
    mate_r: DistDenseVec,
    mate_c: DistDenseVec,
    semiring: Semiring = SR_MIN_PARENT,
) -> None:
    """Round-synchronous greedy maximal matching, SPMD.

    Each round: all unmatched columns flood their adjacency (one SpMV);
    every unmatched row keeps the semiring-winning column; an INVERT to the
    column side resolves multi-row winners (min row); both sides' mates are
    set.  Terminates when a round matches nothing, which is exactly
    maximality.
    """
    grid = A.grid
    while True:
        lcols = np.flatnonzero(mate_c.local == NULL) + mate_c.lo
        fc = DistVertexFrontier(grid, A.ncols, "col", lcols, lcols, lcols)
        fr = spmv(A, fc, semiring)
        fr = fr.keep(mate_r.get_local(fr.idx) == NULL)
        # resolve: columns keep their minimum proposing row
        c_arr, r_arr = invert_route(grid, fr.parent, fr.idx, mate_c)
        if c_arr.size:
            order = np.lexsort((r_arr, c_arr))
            c_s, r_s = c_arr[order], r_arr[order]
            first = np.empty(c_s.size, dtype=bool)
            first[0] = True
            np.not_equal(c_s[1:], c_s[:-1], out=first[1:])
            wc, wr = c_s[first], r_s[first]
        else:
            wc = wr = np.empty(0, np.int64)
        mate_c.set_local(wc, wr)
        # notify row owners of the accepted pairs
        rr, rc = route(grid.comm, mate_r.owner_of(wr), wr, wc)
        mate_r.set_local(rr, rc)
        matched = int(grid.comm.allreduce(wr.size, op=SUM))
        if matched == 0:
            return


def _init_block_degrees(A: DistSparseMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Block-replicated residual degrees: every rank of grid row i holds the
    row degrees of row block i (rowcomm allreduce); every rank of grid
    column j the column degrees of column block j (colcomm allreduce)."""
    grid, blk = A.grid, A.block
    local_degr = np.bincount(blk.ir, minlength=blk.nrows).astype(np.int64)
    degr_blk = grid.rowcomm.allreduce(local_degr, op=SUM)
    local_degc = np.zeros(blk.ncols, dtype=np.int64)
    if blk.nzc:
        local_degc[blk.jc] = np.diff(blk.cp)
    degc_blk = grid.colcomm.allreduce(local_degc, op=SUM)
    return degr_blk, degc_blk


def _spmd_proposal_round(
    A: DistSparseMatrix,
    mate_r: DistDenseVec,
    mate_c: DistDenseVec,
    proposer_cols_local: np.ndarray,
    degr_blk: np.ndarray,
    degc_blk: np.ndarray,
    *,
    degree_keys: bool,
) -> int:
    """One bulk-synchronous proposal round shared by the SPMD initializers.

    ``proposer_cols_local`` are this rank's proposing columns (global ids).
    Steps: explode proposals at the block owners → fold to row owners →
    free rows accept (min degree if ``degree_keys``, else min index) →
    column owners resolve (same keying) → mates set on both sides →
    block-replicated residual degrees decremented.  Returns the GLOBAL
    number of pairs matched this round.
    """
    grid, blk = A.grid, A.block
    # 1. proposals: proposing columns explode their adjacency
    pieces = grid.colcomm.allgatherv((proposer_cols_local,))
    gcols = np.concatenate([p[0] for p in pieces])
    rows_l, parents, _roots = A.block.explode_cols(gcols - A.col_lo, gcols, gcols)
    grows = rows_l + A.row_lo
    degc_of = degc_blk[parents - A.col_lo]
    sub, _b = mate_r.vmap.owner(grows)
    rrows, rcols, rdegc = route(grid.rowcomm, sub, grows, parents, degc_of)

    # 2a. free rows accept one proposer
    free = mate_r.get_local(rrows) == NULL
    rrows, rcols, rdegc = rrows[free], rcols[free], rdegc[free]
    if rrows.size:
        key = rdegc if degree_keys else rcols
        order = np.lexsort((rcols, key, rrows))
        rr, rc = rrows[order], rcols[order]
        first = np.empty(rr.size, dtype=bool)
        first[0] = True
        np.not_equal(rr[1:], rr[:-1], out=first[1:])
        rr, rc = rr[first], rc[first]
    else:
        rr = rc = np.empty(0, np.int64)
    degr_of = degr_blk[rr - A.row_lo] if rr.size else rr

    # 2b. columns keep one row
    dest = mate_c.owner_of(rc)
    c_arr, r_arr, rdeg_arr = route(grid.comm, dest, rc, rr, degr_of)
    if c_arr.size:
        key = rdeg_arr if degree_keys else r_arr
        order = np.lexsort((r_arr, key, c_arr))
        c_s, r_s = c_arr[order], r_arr[order]
        first = np.empty(c_s.size, dtype=bool)
        first[0] = True
        np.not_equal(c_s[1:], c_s[:-1], out=first[1:])
        wc, wr = c_s[first], r_s[first]
    else:
        wc = wr = np.empty(0, np.int64)
    mate_c.set_local(wc, wr)
    back_r, back_c = route(grid.comm, mate_r.owner_of(wr), wr, wc)
    mate_r.set_local(back_r, back_c)

    # 3. residual degree maintenance from the globally matched sets
    wr_all = np.concatenate(grid.comm.allgatherv(wr))
    wc_all = np.concatenate(grid.comm.allgatherv(wc))
    matched = int(wr_all.size)
    if matched == 0:
        return 0
    # rows adjacent to newly matched columns lose a degree
    lc = wc_all[(wc_all >= A.col_lo) & (wc_all < A.col_hi)] - A.col_lo
    rows_touched, _, _ = A.block.explode_cols(lc, lc, lc)
    dec_r = np.bincount(rows_touched, minlength=blk.nrows).astype(np.int64)
    degr_blk -= grid.rowcomm.allreduce(dec_r, op=SUM)
    # columns adjacent to newly matched rows lose a degree (row scan of the
    # column-major DCSC block)
    lr = wr_all[(wr_all >= A.row_lo) & (wr_all < A.row_hi)] - A.row_lo
    if blk.nnz and lr.size:
        hit = np.isin(blk.ir, lr)
        cols_rep = np.repeat(blk.jc, np.diff(blk.cp))
        dec_c = np.bincount(cols_rep[hit], minlength=blk.ncols).astype(np.int64)
    else:
        dec_c = np.zeros(blk.ncols, dtype=np.int64)
    degc_blk -= grid.colcomm.allreduce(dec_c, op=SUM)
    return matched


def mindegree_init_spmd(
    A: DistSparseMatrix,
    mate_r: DistDenseVec,
    mate_c: DistDenseVec,
) -> None:
    """Round-synchronous dynamic-mindegree maximal matching, SPMD.

    The paper's default initializer in true distributed form: every round
    all unmatched columns propose, proposals are keyed by block-replicated
    residual degrees on both sides (matching the serial
    ``mindegree_rounds`` tie-breaking), and degrees are maintained with
    row/column-communicator allreduces.  Terminates when a round matches
    nothing (maximality).
    """
    degr_blk, degc_blk = _init_block_degrees(A)
    while True:
        lcols = np.flatnonzero(mate_c.local == NULL) + mate_c.lo
        matched = _spmd_proposal_round(
            A, mate_r, mate_c, lcols, degr_blk, degc_blk, degree_keys=True
        )
        if matched == 0:
            return


def karp_sipser_init_spmd(
    A: DistSparseMatrix,
    mate_r: DistDenseVec,
    mate_c: DistDenseVec,
) -> None:
    """Round-synchronous Karp-Sipser (column-oriented), SPMD.

    Rounds where any residual degree-1 column exists process ONLY those
    columns (their match is always safe); otherwise a greedy round runs.
    The degree-1 cascades serialize into many bulk-synchronous rounds —
    exactly the behaviour that makes distributed Karp-Sipser slow in the
    paper's Fig. 3.
    """
    grid = A.grid
    degr_blk, degc_blk = _init_block_degrees(A)
    while True:
        free_local = np.flatnonzero(mate_c.local == NULL) + mate_c.lo
        my_deg = degc_blk[free_local - A.col_lo]
        deg1 = free_local[my_deg == 1]
        any_deg1 = int(grid.comm.allreduce(int(deg1.size), op=SUM)) > 0
        proposers = deg1 if any_deg1 else free_local[my_deg > 0]
        matched = _spmd_proposal_round(
            A, mate_r, mate_c, proposers, degr_blk, degc_blk, degree_keys=False
        )
        if matched == 0 and not any_deg1:
            return
        if matched == 0 and any_deg1:
            # stale degree-1 entries can occur transiently after ties; a
            # greedy sweep makes progress or proves maximality
            matched = _spmd_proposal_round(
                A, mate_r, mate_c, free_local[my_deg > 0], degr_blk, degc_blk,
                degree_keys=False,
            )
            if matched == 0:
                return


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def augment_level_spmd(
    grid: ProcGrid,
    start_rows: np.ndarray,
    pi_r: DistDenseVec,
    mate_r: DistDenseVec,
    mate_c: DistDenseVec,
) -> None:
    """Algorithm 3, SPMD: all paths advance one (row, column) pair per
    lockstep iteration; two routed all-to-alls + one allreduce each."""
    rows = np.asarray(start_rows, np.int64)
    while True:
        if int(grid.comm.allreduce(rows.size, op=SUM)) == 0:
            return
        # deliver each active row to its owner; read parent, flip row's mate
        (rows_o,) = route(grid.comm, mate_r.owner_of(rows), rows)
        cols = pi_r.get_local(rows_o)
        mate_r.set_local(rows_o, cols)
        # deliver (col, row) to the column owner; read previous mate, flip
        c_arr, r_arr = route(grid.comm, mate_c.owner_of(cols), cols, rows_o)
        prev = mate_c.get_local(c_arr)
        mate_c.set_local(c_arr, r_arr)
        rows = prev[prev != NULL]


def augment_path_spmd_rma(
    grid: ProcGrid,
    start_rows: np.ndarray,
    pi_r: DistDenseVec,
    mate_r: DistDenseVec,
    mate_c: DistDenseVec,
) -> None:
    """Algorithm 4, SPMD: each rank walks its own paths asynchronously with
    one-sided Get/Put/Fetch-and-op — 3 RMA calls per pair-step, exactly the
    paper's accounting.  Vertex-disjointness of the paths makes the
    unordered remote updates safe."""
    win_pi = Window(grid.comm, pi_r.local)
    win_mr = Window(grid.comm, mate_r.local)
    win_mc = Window(grid.comm, mate_c.local)
    windows = [win_pi, win_mr, win_mc]
    # fused epoch management: logically three fences / three frees, but the
    # epoch barriers ride one physical star wave each under aggregation
    fence_all(windows)
    for r0 in np.asarray(start_rows, np.int64).tolist():
        r = int(r0)
        while r != NULL:
            rank, off = pi_r.remote_location(r)
            c = int(win_pi.get(rank, off))           # MPI_Get(π_r[r])
            win_mr.put(rank, off, c)                 # MPI_Put(mate_r[r] = c)
            crank, coff = mate_c.remote_location(c)
            r = int(win_mc.fetch_and_op(crank, coff, r))  # fused read-old/put-new
    fence_all(windows)
    free_all(windows)


# ---------------------------------------------------------------------------
# phase-granular checkpointing
# ---------------------------------------------------------------------------

def _save_checkpoint(
    grid: ProcGrid,
    store: CheckpointStore,
    phase: int,
    mate_r: DistDenseVec,
    mate_c: DistDenseVec,
    stats: DistStats,
) -> None:
    """Snapshot the globally assembled matching after a completed phase.

    The assembly is collective (allgather on the grid communicator); only
    rank 0 writes to the store, so file-backed stores see one writer.  The
    closing barrier orders the write against every peer's progress: no rank
    can pass this checkpoint (and reach the next crashable phase boundary)
    until rank 0 has durably saved it, which is what makes the restart
    trajectory of a seeded fault plan deterministic rather than dependent
    on how far ahead the allgather let individual ranks run.
    """
    with tspan(grid.comm, "checkpoint", cat="phase", phase=phase):
        g_r = mate_r.to_global()
        g_c = mate_c.to_global()
        if grid.comm.rank == 0:
            store.save(Checkpoint(phase=phase, mate_row=g_r, mate_col=g_c, rng_state=None))
        grid.comm.barrier()
        stats.checkpoint_words += g_r.size + g_c.size + 2


def _phase_boundary(grid: ProcGrid, phase_no: int) -> None:
    """Publish phase progress and give the fault plan its phase-boundary
    crash point (a no-op without an armed injector)."""
    fabric = grid.comm.fabric
    fabric.note_progress("phase", phase_no)
    if fabric.faults is not None:
        fabric.faults.on_phase(grid.comm.global_rank, phase_no)


# ---------------------------------------------------------------------------
# the SPMD algorithm
# ---------------------------------------------------------------------------

def mcm_dist_spmd(
    comm: Communicator,
    coo_on_root: "COO | None",
    pr: int,
    pc: int,
    *,
    init: str = "greedy",
    semiring: Semiring = SR_MIN_PARENT,
    prune: bool = True,
    augment: str = "auto",
    direction: str = "topdown",
    checkpoint_every: int = 0,
    checkpoint_store: "CheckpointStore | None" = None,
    resume: "Checkpoint | None" = None,
) -> tuple[np.ndarray, np.ndarray, DistStats]:
    """The per-rank body of MCM-DIST (launch via :func:`run_mcm_dist`).

    ``coo_on_root`` is the input matrix on rank 0 (None elsewhere);
    ``augment`` is "level", "path" or "auto" (the k < 2p² switch);
    ``direction`` is "topdown", "bottomup" or "auto" — "auto" picks the
    cheaper Step-1 direction every iteration by one global 2-word edge-count
    allreduce.  Deterministic semirings yield identical mate vectors in all
    three modes.  Returns (globally gathered mate_r, mate_c, stats) on
    every rank.

    Checkpoint/restart (driven by ``run_mcm_dist_resilient``): with
    ``checkpoint_store`` set, the job snapshots the globally assembled
    mate vectors after the initializer and after every
    ``checkpoint_every``-th completed phase — each completed phase is a
    valid matching, so any snapshot is a correct restart point.  With
    ``resume`` set, the initializer is skipped and the phase loop continues
    from the checkpointed matching.
    """
    if direction not in ("topdown", "bottomup", "auto"):
        raise ValueError(
            f"unknown direction {direction!r} (topdown/bottomup/auto)"
        )
    grid = ProcGrid(comm, pr, pc)
    A = DistSparseMatrix.scatter_from_root(grid, coo_on_root)
    mate_r = DistDenseVec(grid, A.nrows, "row")
    mate_c = DistDenseVec(grid, A.ncols, "col")
    stats = DistStats()

    if resume is not None:
        # restart path: the checkpointed matching replaces the initializer
        mate_r.local[:] = resume.mate_row[mate_r.lo:mate_r.hi]
        mate_c.local[:] = resume.mate_col[mate_c.lo:mate_c.hi]
    elif init == "greedy":
        with tspan(grid.comm, "init:greedy", cat="phase"):
            greedy_init_spmd(A, mate_r, mate_c, semiring)
    elif init == "mindegree":
        with tspan(grid.comm, "init:mindegree", cat="phase"):
            mindegree_init_spmd(A, mate_r, mate_c)
    elif init == "karp-sipser":
        with tspan(grid.comm, "init:karp-sipser", cat="phase"):
            karp_sipser_init_spmd(A, mate_r, mate_c)
    elif init not in (None, "none"):
        raise ValueError(
            f"unknown distributed init {init!r} (greedy/mindegree/karp-sipser/none)"
        )
    stats.initial_cardinality = int(
        grid.comm.allreduce(int((mate_r.local != NULL).sum()), op=SUM)
    )
    if checkpoint_store is not None and resume is None:
        # phase-0 snapshot: initializer work survives a crash in phase 1
        _save_checkpoint(grid, checkpoint_store, 0, mate_r, mate_c, stats)

    pi_r = DistDenseVec(grid, A.nrows, "row")
    path_c = DistDenseVec(grid, A.ncols, "col")

    # direction-switch inputs: cached degree sub-slices (collective on the
    # first call, so EVERY mode primes them at the same program point) —
    # also used for the edges-examined accounting below.
    degr_sub, degc_sub = A.degree_slices()
    edges_local = 0
    phase_no = resume.phase if resume is not None else 0

    while True:
        phase_no += 1
        stats.phases = phase_no
        _phase_boundary(grid, phase_no)
        # leaving the ``with`` via the k == 0 break below still closes the
        # span, so even the final (no-path) phase is timed
        with tspan(grid.comm, "phase", cat="phase", phase=phase_no):
            pi_r.local.fill(NULL)
            path_c.local.fill(NULL)

            # initial column frontier: unmatched columns, parent = root = self
            lcols = np.flatnonzero(mate_c.local == NULL) + mate_c.lo
            fc = DistVertexFrontier(grid, A.ncols, "col", lcols, lcols, lcols)

            # in-flight edge-count iallreduce (direction="auto"): posted at
            # each superstep's tail, waited at the next head, so its hub
            # fold/down-leg overlaps the frontier-count exchange between them
            dir_req = None
            while fc.global_nnz() > 0:
                stats.iterations += 1
                with tspan(grid.comm, "bfs_iter", cat="phase", iter=stats.iterations):
                    # Step 1: SpMV (expand + fold), direction-optimized.  The
                    # decision must be globally uniform: "auto" allreduces the
                    # two edge counts; fixed modes are trivially uniform.
                    td_local = int(degc_sub[fc.idx - fc.lo].sum())
                    bu_local = int(degr_sub[pi_r.local == NULL].sum())
                    if direction == "auto":
                        if dir_req is None:  # first superstep of the phase
                            td_g, bu_g = direction_edge_counts(A, fc, pi_r)
                        else:
                            td_g, bu_g = direction_edge_counts_finish(dir_req)
                            dir_req = None
                        use_bu = bu_g < td_g
                    else:
                        use_bu = direction == "bottomup"
                    edges_local += bu_local if use_bu else td_local
                    # the chosen direction appears in the trace as the kernel
                    # span's name: spmv (top-down) vs spmv_bottomup (pull)
                    if use_bu:
                        stats.bottomup_steps += 1
                        fr = spmv_bottomup(A, fc, pi_r, semiring)
                    else:
                        stats.topdown_steps += 1
                        fr = spmv(A, fc, semiring)
                    # Step 2: SELECT unvisited rows (a no-op after a bottom-up
                    # step, which only ever proposes unvisited rows — kept
                    # unconditionally so both directions share one code path)
                    fr = fr.keep(pi_r.get_local(fr.idx) == NULL)
                    # Step 3: SET parents
                    pi_r.set_local(fr.idx, fr.parent)
                    # Step 4: split matched/unmatched
                    unmatched = mate_r.get_local(fr.idx) == NULL
                    ufr = fr.keep(unmatched)
                    fr = fr.keep(~unmatched)

                    # Step 5: INVERT roots of unmatched rows into path_c
                    t_roots, t_rows = invert_route(grid, ufr.root, ufr.idx, path_c)
                    if t_roots.size:
                        order = np.lexsort((t_rows, t_roots))
                        tr_s, tv_s = t_roots[order], t_rows[order]
                        first = np.empty(tr_s.size, dtype=bool)
                        first[0] = True
                        np.not_equal(tr_s[1:], tr_s[:-1], out=first[1:])
                        tr_s, tv_s = tr_s[first], tv_s[first]
                        fresh = path_c.get_local(tr_s) == NULL
                        path_c.set_local(tr_s[fresh], tv_s[fresh])

                    # Step 6: PRUNE trees that found augmenting paths this
                    # iteration
                    if prune:
                        new_roots = allgather_values(grid.comm, np.unique(ufr.root))
                        if new_roots.size and fr.local_nnz:
                            fr = fr.keep(~np.isin(fr.root, new_roots))

                    # Step 7: INVERT through mates -> next column frontier
                    mates = mate_r.get_local(fr.idx)
                    nc, nroot = invert_route(grid, mates, fr.root, mate_c)
                    order = np.argsort(nc)
                    fc = DistVertexFrontier(
                        grid, A.ncols, "col", nc[order], nc[order], nroot[order]
                    )
                    # superstep tail: the next frontier and the final π_r of
                    # this iteration exist, so the next head's direction
                    # counts can already be in flight (overlap window spans
                    # the global_nnz exchange of the loop condition)
                    if direction == "auto":
                        dir_req = direction_edge_counts_begin(A, fc, pi_r)
            if dir_req is not None:
                # the tail post of the last superstep: a collective every
                # rank entered, so every rank must complete it
                direction_edge_counts_finish(dir_req)
                dir_req = None

            # phase end: augment by all discovered paths (my local path ends)
            local_rows = path_c.local[path_c.local != NULL]
            k = int(grid.comm.allreduce(local_rows.size, op=SUM))
            if k == 0:
                break
            mode = augment if augment != "auto" else choose_augment_mode(k, grid.nprocs)
            if mode == "level":
                stats.augment_level_calls += 1
                with tspan(grid.comm, "augment:level", cat="phase", k=k):
                    augment_level_spmd(grid, local_rows, pi_r, mate_r, mate_c)
            elif mode == "path":
                stats.augment_path_calls += 1
                with tspan(grid.comm, "augment:path", cat="phase", k=k):
                    augment_path_spmd_rma(grid, local_rows, pi_r, mate_r, mate_c)
            else:
                raise ValueError(f"unknown augment mode {mode!r}")

            # phase complete: the augmented matching is valid (vertex-disjoint
            # augmenting paths), so it is a correct restart point
            if (
                checkpoint_store is not None
                and checkpoint_every > 0
                and phase_no % checkpoint_every == 0
            ):
                _save_checkpoint(grid, checkpoint_store, phase_no, mate_r, mate_c, stats)

    stats.final_cardinality = int(
        grid.comm.allreduce(int((mate_r.local != NULL).sum()), op=SUM)
    )
    stats.edges_examined = int(grid.comm.allreduce(edges_local, op=SUM))
    # snapshot BEFORE the summing collectives so they don't count themselves
    words = np.array(
        [
            grid.colcomm.stats.words_sent,
            grid.rowcomm.stats.words_sent,
            grid.comm.stats.words_sent,
        ],
        dtype=np.int64,
    )
    words = grid.comm.allreduce(words, op=SUM)
    stats.expand_words = int(words[0])
    stats.fold_words = int(words[1])
    stats.total_words = int(words[0] + words[1] + words[2])
    g_r = mate_r.to_global()
    g_c = mate_c.to_global()
    # per-algorithm counters, aggregated over this rank's grid/row/column
    # communicators as the LAST act of the job — no message leaves any rank
    # after this snapshot, so the per-rank tables account for every word of
    # the whole job (which is what lets the span tracer cross-check them
    # exactly).  The drivers sum the rank-local tables into the grid-wide
    # ``comm_by_alg`` with ZERO extra communication: the executor already
    # returns every rank's values.
    stats.comm_by_alg = _local_by_alg(grid)
    stats.comm_messages, stats.frames, stats.frame_words = _local_physical(grid)
    return g_r, g_c, stats


def _local_physical(grid: ProcGrid) -> tuple[int, int, int]:
    """This rank's (logical messages, physical frames, frame words) summed
    over the job's three communicators — snapshotted at the same no-more-
    traffic point as :func:`_local_by_alg`, so frames account for every
    flush of the job."""
    msgs = frames = fwords = 0
    for c in (grid.colcomm, grid.rowcomm, grid.comm):
        msgs += c.stats.messages_sent
        frames += c.stats.frames
        fwords += c.stats.frame_words
    return msgs, frames, fwords


def _local_by_alg(grid: ProcGrid) -> dict[str, dict[str, int]]:
    """This rank's ``{"op:alg": counters}`` summed over the job's three
    communicators (grid, row, column)."""
    mine: dict[str, dict[str, int]] = {}
    for c in (grid.colcomm, grid.rowcomm, grid.comm):
        for key, d in c.stats.by_alg.items():
            agg = mine.setdefault(
                key, {"calls": 0, "messages": 0, "words": 0, "steps": 0}
            )
            for field_name, v in d.items():
                agg[field_name] += v
    return mine


def merge_by_alg(rank_values) -> dict[str, dict[str, int]]:
    """Driver-side fold of per-rank ``(mate_r, mate_c, stats)`` tuples'
    local ``comm_by_alg`` tables into the grid-wide table (pure local
    computation on the already-gathered SPMD return values)."""
    merged: dict[str, dict[str, int]] = {}
    for _, _, st in rank_values:
        for key, d in (st.comm_by_alg or {}).items():
            agg = merged.setdefault(
                key, {"calls": 0, "messages": 0, "words": 0, "steps": 0}
            )
            for field_name, v in d.items():
                agg[field_name] += v
    return merged


def merge_physical(stats: DistStats, rank_values) -> None:
    """Driver-side fold of the per-rank logical/physical ledgers onto the
    reported ``stats`` (companion of :func:`merge_by_alg`)."""
    stats.comm_messages = sum(st.comm_messages for _, _, st in rank_values)
    stats.frames = sum(st.frames for _, _, st in rank_values)
    stats.frame_words = sum(st.frame_words for _, _, st in rank_values)


def _mcm_rank_main(comm: Communicator, coo: COO, pr: int, pc: int, **mcm_kwargs):
    """Per-rank entry point of :func:`run_mcm_dist`.

    A module-level function (not a closure) so a process backend can pickle
    it; the graph and grid shape arrive through ``spmd``'s ``*args``.
    """
    data = coo if comm.rank == 0 else None
    return mcm_dist_spmd(comm, data, pr, pc, **mcm_kwargs)


def run_mcm_dist(
    coo: COO,
    pr: int,
    pc: int,
    *,
    init: str = "greedy",
    semiring: Semiring = SR_MIN_PARENT,
    prune: bool = True,
    augment: str = "auto",
    direction: str = "topdown",
    timeout: "float | None" = None,
    verify: bool = False,
    faults=None,
    comm_config=None,
    trace: "bool | str" = False,
    backend: "str | None" = None,
) -> tuple[np.ndarray, np.ndarray, DistStats]:
    """Launch MCM-DIST on a simulated pr × pc process grid.

    The matrix starts on rank 0 and is scattered; the returned mate vectors
    are the globally assembled result (identical on every rank).
    ``direction`` selects the Step-1 traversal ("topdown"/"bottomup"/"auto").
    ``verify=True`` arms the runtime's collective-divergence and RMA-race
    verifiers for the whole job (``repro spmd --verify``).
    ``timeout`` is the deadlock window for every blocking runtime call
    (``None`` → ``$REPRO_SPMD_TIMEOUT`` → 120 s); ``faults`` optionally arms
    a seeded :class:`~repro.runtime.faults.FaultPlan`/``FaultInjector`` —
    this entry point has no recovery, use
    :func:`~repro.runtime.executor.run_mcm_dist_resilient` to survive the
    injected crashes.  ``comm_config`` optionally pins the collective
    algorithms and payload packing
    (:class:`~repro.runtime.comm.CollectiveConfig`); deterministic semirings
    yield bit-identical mate vectors under every choice.  ``trace`` turns on
    per-rank span tracing (``True``/``"wall"`` for wall-clock timestamps,
    ``"ticks"`` for the deterministic clock); the merged
    :class:`~repro.runtime.trace.DistTrace` lands on ``stats.trace`` —
    tracing never changes results (the tracer only observes).
    ``backend`` selects the transport ("thread"/"process" — forked OS
    processes over shared-memory rings; bit-identical mates either way);
    ``None`` resolves through ``$REPRO_SPMD_BACKEND``.
    """
    from ..runtime.executor import resolve_timeout

    result = spmd(
        pr * pc, _mcm_rank_main, coo, pr, pc,
        timeout=resolve_timeout(timeout, default=120.0),
        verify=verify, faults=faults, comm_config=comm_config, trace=trace,
        backend=backend,
        init=init, semiring=semiring, prune=prune, augment=augment,
        direction=direction,
    )
    mate_r, mate_c, stats = result[0]
    stats.comm_by_alg = merge_by_alg(result.values)
    merge_physical(stats, result.values)
    stats.verify_summary = result.verify_summary
    if result.trace is not None:
        stats.trace = result.trace
    return mate_r, mate_c, stats
