"""α-β cost formulas for the collectives used by the matching algorithms.

Each function returns model seconds for ONE process's participation in the
collective (the bulk-synchronous step time, i.e. the slowest participant),
given the number of processes ``p``, the relevant word counts, and the
(α, β) pair the caller obtained from
:meth:`repro.perfmodel.machine.MachineSpec.comm_params`.

The formulas correspond 1:1 to the algorithms implemented by
:class:`repro.runtime.comm.Communicator` and to the costs assumed in
Section IV-B of the paper:

* SpMV "expand" = :func:`allgather_ring` over a grid column (√P processes);
* SpMV "fold" = :func:`alltoallv_pairwise` over a grid row (√P processes);
* INVERT = :func:`alltoallv_pairwise` over all P processes — its αP latency
  is the scaling bottleneck the paper highlights;
* PRUNE = :func:`allgather_ring` of the discovered augmenting-path roots;
* level-parallel augmentation = 3 all-to-alls per INVERT, 2 INVERTs/step:
  the paper's h(6αp + 4βk/p) cost is assembled in matching.augment;
* path-parallel augmentation = :func:`rma_op` per Get/Put/Fetch-and-op.
"""

from __future__ import annotations


def log2ceil(p: int) -> int:
    """⌈log₂p⌉ rounds of a doubling schedule (0 for a singleton) — the
    step count the runtime's ledgers and these formulas share."""
    return (p - 1).bit_length() if p > 1 else 0


def degraded_params(
    alpha: float, beta: float, links=None, group=None
) -> tuple[float, float]:
    """(α, β) a collective over ``group`` sees under link degradation.

    ``links`` is a :class:`repro.perfmodel.links.LinkModel` (or ``None`` for
    a healthy fabric); ``group`` the participating ranks.  A bulk-synchronous
    collective finishes with its slowest participant, so the worst degraded
    edge inside the group inflates the whole collective's (α, β) — the
    pessimistic-but-honest reading of asymmetric topology damage.
    """
    if links is None:
        return alpha, beta
    fa, fb = links.worst_factors(group)
    return alpha * fa, beta * fb


def p2p(alpha: float, beta: float, words: float) -> float:
    """One point-to-point message of ``words`` 8-byte words."""
    return alpha + beta * words


def frame_flush(alpha: float, beta: float, frames: float, words: float) -> float:
    """One coalescer flush: ``frames`` framed buffers injected back to back.

    The aggregation engine charges α once per *frame* (the whole point of
    coalescing) and β per payload word — the per-message α of the batched
    logical messages is what the frame saves.
    """
    return alpha * frames + beta * words


def hub_star(p: int, alpha: float, beta: float, up_words: float, down_words: float) -> float:
    """Aggregated hub/star collective plan (``CollectiveConfig.aggregate``).

    Every non-hub rank sends ONE coalesced frame to the hub and receives
    ONE frame back; the bulk-synchronous step time is the hub's, which
    serializes 2(p-1) frames.  ``up_words``/``down_words`` are the total
    payload volumes through the hub in each direction.
    """
    if p <= 1:
        return 0.0
    return 2 * (p - 1) * alpha + beta * (up_words + down_words)


def barrier_star(p: int, alpha: float) -> float:
    """Aggregated barrier: one empty star wave, 2(p-1) frames at the hub."""
    return hub_star(p, alpha, 0.0, 0.0, 0.0)


def rma_op(alpha: float, beta: float, words: float = 1.0) -> float:
    """One one-sided Get/Put/Accumulate/Fetch-and-op of ``words`` words.

    The paper charges 3(α+β) for the three RMA calls of one path-parallel
    augmentation step; each call here is α + βw with w = 1.
    """
    return alpha + beta * words


def barrier_dissemination(p: int, alpha: float) -> float:
    """Dissemination barrier: ⌈log₂p⌉ latency-only rounds."""
    return alpha * log2ceil(p)


def bcast_binomial(p: int, alpha: float, beta: float, words: float) -> float:
    """Binomial-tree broadcast of a ``words``-word payload."""
    return log2ceil(p) * (alpha + beta * words)


def reduce_binomial(p: int, alpha: float, beta: float, words: float) -> float:
    """Binomial-tree reduction of ``words``-word payloads."""
    return log2ceil(p) * (alpha + beta * words)


def bcast_linear(p: int, alpha: float, beta: float, words: float) -> float:
    """Naive root-sends-to-all broadcast: p-1 sequential sends at the root."""
    if p <= 1:
        return 0.0
    return (p - 1) * (alpha + beta * words)


def reduce_linear(p: int, alpha: float, beta: float, words: float) -> float:
    """Naive everyone-sends-to-root reduction: p-1 receives at the root."""
    if p <= 1:
        return 0.0
    return (p - 1) * (alpha + beta * words)


def allreduce_recursive_doubling(p: int, alpha: float, beta: float, words: float) -> float:
    """Recursive-doubling allreduce: log₂⌊p⌋ exchange rounds, plus one
    fold-in/fold-out round pair when p is not a power of two."""
    if p <= 1:
        return 0.0
    pof2 = 1 << (p.bit_length() - 1)
    rounds = pof2.bit_length() - 1
    if p != pof2:
        rounds += 2
    return rounds * (alpha + beta * words)


def allreduce_reduce_bcast(p: int, alpha: float, beta: float, words: float) -> float:
    """Reduce + broadcast (binomial trees back to back)."""
    return reduce_binomial(p, alpha, beta, words) + bcast_binomial(p, alpha, beta, words)


def allreduce(p: int, alpha: float, beta: float, words: float, algorithm: str = "reduce_bcast", links=None, group=None, aggregate: bool = False) -> float:
    """Dispatch on the modeled allreduce implementation."""
    alpha, beta = degraded_params(alpha, beta, links, group)
    if aggregate:
        # hub plan: p-1 one-frame ups of ``words`` each, p-1 result frames down
        return hub_star(p, alpha, beta, (p - 1) * words, (p - 1) * words)
    if algorithm == "doubling":
        return allreduce_recursive_doubling(p, alpha, beta, words)
    if algorithm == "reduce_bcast":
        return allreduce_reduce_bcast(p, alpha, beta, words)
    if algorithm == "linear":
        return reduce_linear(p, alpha, beta, words) + bcast_linear(p, alpha, beta, words)
    raise ValueError(f"unknown allreduce algorithm {algorithm!r}")


def gather_direct(p: int, alpha: float, beta: float, total_words: float) -> float:
    """Direct gather at the root: p-1 receives, ``total_words`` words in."""
    if p <= 1:
        return 0.0
    return alpha * (p - 1) + beta * total_words


def scatter_direct(p: int, alpha: float, beta: float, total_words: float) -> float:
    """Direct scatter from the root: p-1 sends, ``total_words`` words out."""
    if p <= 1:
        return 0.0
    return alpha * (p - 1) + beta * total_words


def allgather_ring(p: int, alpha: float, beta: float, total_words: float) -> float:
    """Ring allgather: p-1 steps; every process forwards (p-1)/p of the
    total payload.  This is the "ring algorithm" cost αp + βμ the paper
    cites for PRUNE's root gather."""
    if p <= 1:
        return 0.0
    return alpha * (p - 1) + beta * total_words * (p - 1) / p


def alltoallv_pairwise(p: int, alpha: float, beta: float, max_send_words: float) -> float:
    """Pairwise-exchange personalized all-to-all.

    ``max_send_words`` is the largest per-process total send volume; the
    pairwise schedule takes p-1 rounds of α plus the bandwidth term of the
    busiest process.  This is the worst-case cost the paper's Section IV-B
    analysis assumes (the αp INVERT latency).
    """
    if p <= 1:
        return 0.0
    return alpha * (p - 1) + beta * max_send_words


def alltoallv_bruck(p: int, alpha: float, beta: float, max_send_words: float) -> float:
    """Bruck-algorithm personalized all-to-all for small messages.

    ⌈log₂p⌉ rounds; each round forwards roughly half the aggregate payload,
    so the bandwidth term picks up a log₂p/2 factor while latency drops from
    p-1 to log₂p.  Production MPIs (including Cray's) switch to this regime
    for the small per-destination messages sparse INVERTs generate — it is
    what lets the paper's measured runs keep scaling past the point where
    the αp worst-case bound would have frozen them.
    """
    if p <= 1:
        return 0.0
    rounds = log2ceil(p)
    # Per-destination metadata (the counts exchange) is folded into the
    # latency term: it is size-independent and behaves like α, not like
    # payload bandwidth.
    return alpha * rounds + beta * max_send_words * rounds / 2


def allgather_recursive_doubling(p: int, alpha: float, beta: float, total_words: float) -> float:
    """Recursive-doubling allgather: log₂p rounds, same βW total volume as
    the ring but logarithmic latency (the small-message regime)."""
    if p <= 1:
        return 0.0
    return alpha * log2ceil(p) + beta * total_words * (p - 1) / p


def alltoallv(p: int, alpha: float, beta: float, max_send_words: float, algorithm: str = "bruck", links=None, group=None, aggregate: bool = False) -> float:
    """Dispatch on the modeled all-to-all implementation.

    ``aggregate`` prices the hub/star plan the runtime uses under
    ``CollectiveConfig.aggregate`` for the pairwise schedule; the Bruck
    schedule forwards foreign payloads and stays physically unaggregated,
    so the hub price only applies to ``algorithm="pairwise"``.
    """
    alpha, beta = degraded_params(alpha, beta, links, group)
    if aggregate and algorithm == "pairwise":
        # each rank ships its whole send row up in one frame; the hub
        # redistributes one personalized frame per rank
        vol = (p - 1) * max_send_words
        return hub_star(p, alpha, beta, vol, vol)
    if algorithm == "bruck":
        return alltoallv_bruck(p, alpha, beta, max_send_words)
    if algorithm == "pairwise":
        return alltoallv_pairwise(p, alpha, beta, max_send_words)
    raise ValueError(f"unknown alltoall algorithm {algorithm!r}")


def allgather(p: int, alpha: float, beta: float, total_words: float, algorithm: str = "doubling", links=None, group=None, aggregate: bool = False) -> float:
    """Dispatch on the modeled allgather implementation."""
    alpha, beta = degraded_params(alpha, beta, links, group)
    if aggregate:
        # ups carry each rank's slice (total/p each), downs the full vector
        return hub_star(
            p, alpha, beta,
            total_words * (p - 1) / p, (p - 1) * total_words,
        )
    if algorithm == "doubling":
        return allgather_recursive_doubling(p, alpha, beta, total_words)
    if algorithm == "ring":
        return allgather_ring(p, alpha, beta, total_words)
    raise ValueError(f"unknown allgather algorithm {algorithm!r}")


def spmv_expand(pr: int, alpha: float, beta: float, frontier_words: float) -> float:
    """The "expand" phase of 2D SpMV: allgather of the frontier slice along a
    processor column (√P participants, CombBLAS style)."""
    return allgather_ring(pr, alpha, beta, frontier_words)


def spmv_fold(pc: int, alpha: float, beta: float, max_send_words: float) -> float:
    """The "fold" phase of 2D SpMV: personalized all-to-all of partial
    products along a processor row."""
    return alltoallv_pairwise(pc, alpha, beta, max_send_words)


def auction_round(
    pr: int,
    pc: int,
    alpha: float,
    beta: float,
    bidder_words: float,
    partial_words: float,
    bid_words: float,
    price_words: float,
    *,
    links=None,
    aggregate: bool = False,
) -> float:
    """One synchronized bidding round of MWM-DIST on a pr × pc grid.

    The round's wire shape (see :mod:`repro.matching.mwm_dist`):

    1. bidder expand — allgather of the unmatched-bidder slices along a
       grid COLUMN (``pr`` participants, ``bidder_words`` total);
    2. partial fold — personalized all-to-all of per-block (best, second)
       partials along the column (``partial_words`` max per-rank send);
    3. bid resolution — grid-wide all-to-all delivering bids to the item
       owners (``pr*pc`` participants, ``bid_words`` max send; the mate
       notifications ride the same shape and are folded into it);
    4. price replication — allgather of accepted (item, price) pairs along
       a grid ROW (``pc`` participants, ``price_words`` total);
    5. quiescence — one 2-word allreduce over the whole grid.

    ``aggregate`` prices the hub-star coalesced variants, matching the
    runtime's superstep aggregation engine.
    """
    p = pr * pc
    return (
        allgather(pr, alpha, beta, bidder_words, algorithm="ring",
                  links=links, aggregate=aggregate)
        + alltoallv(p=pr, alpha=alpha, beta=beta, max_send_words=partial_words,
                    algorithm="pairwise", links=links, aggregate=aggregate)
        + alltoallv(p=p, alpha=alpha, beta=beta, max_send_words=bid_words,
                    algorithm="pairwise", links=links, aggregate=aggregate)
        + allgather(pc, alpha, beta, price_words, algorithm="ring",
                    links=links, aggregate=aggregate)
        + allreduce(p, alpha, beta, 2.0, links=links, aggregate=aggregate)
    )
