"""MPI-like communicators over the simulated fabric.

Every collective keeps two ledgers.  The **logical** ledger
(:attr:`CommStats.messages_sent` / ``words_sent`` / ``by_op`` /
``by_alg``) is what the paper prices in α-β terms (Section IV-B): the
ordered ``(dest, words)`` sends of the collective *algorithm* selected per
communicator by a :class:`CollectiveConfig` — the latency-aware engine
algorithms of production MPIs (Thakur et al.'s MPICH work, which the paper
credits via CombBLAS) or the naive textbook baselines.  The **physical**
ledger (:attr:`CommStats.frames` / ``frame_words``) counts what actually
hits the fabric, and its plan is a fixed property of the op:

============  ==============  =========================  =======================
collective    physical plan   ledger algorithms          α-β cost of the ledger
============  ==============  =========================  =======================
barrier       hub star        dissemination              α⌈log₂p⌉
bcast         root → peers    binomial | linear          (α+βW)·(⌈log₂p⌉ | p-1)
reduce        peers → root    binomial | linear          (α+βW)·(⌈log₂p⌉ | p-1)
allreduce     hub star        doubling | reduce_bcast |  (α+βW)·~⌈log₂p⌉ | the
                              linear                     reduce + bcast sum
allgather(v)  hub star        dissemination | ring       α(⌈log₂p⌉ | p-1) + βW(p-1)/p
alltoall(v)   hub star        pairwise                   α(p-1) + βW
gather(v)     peers → root    direct                     α(p-1) + βW at root
scatter(v)    root → peers    direct                     α(p-1) + βW at root
exscan/scan   chain           chain                      α(p-1)
============  ==============  =========================  =======================

In an in-process runtime an algorithm name is a choice of accounting, not
of wire traffic, so each name selects only two things: the ledger — the
rank's ordered logical sends, replayed through :meth:`Communicator.
_logical_send` so counters, ``by_alg``, trace spans, verify signatures
and every fault-injection hook (draws, retries, model-time pricing) fire
per logical message — and the fold order the hub or root applies, so
float reductions are bit-identical to the round-based schedule the name
describes.  The matching cost *formulas* live in
:mod:`repro.perfmodel.collectives`; a test holds ``by_alg`` steps per call
equal to their α-only price.

Physically, collective and ``isend`` traffic goes through a
per-destination coalescer: every payload a rank emits toward a peer
between two flush points travels as one framed buffer — a single mailbox
deposit on the thread fabric, a single ring write (one codec pass) on the
process backend.  A hub star wave through comm rank 0 costs 2(p-1) frames
per call whatever the logical round count.  Flush points are
deterministic (entry to any blocking receive, every collective boundary,
:meth:`Communicator.flush_sends`), so frame counts are reproducible and
benchmarkable.  Blocking point-to-point ``send`` stays eager: one frame
per message.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..perfmodel.collectives import log2ceil
from .errors import CollectiveMismatchError, CommError, TransientCommError
from .fabric import ANY_SOURCE, ANY_TAG, Fabric, _RESERVED_TAG_BASE


class ReduceOp:
    """A named, associative reduction operator usable by reduce/allreduce/scan.

    ``fn`` combines two values (scalars or NumPy arrays of equal shape) and
    must be associative; commutativity is also assumed, as in MPI's built-in
    operators.
    """

    def __init__(self, name: str, fn: Callable[[Any, Any], Any]) -> None:
        self.name = name
        self.fn = fn

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReduceOp({self.name})"


SUM = ReduceOp("sum", lambda a, b: a + b)
PROD = ReduceOp("prod", lambda a, b: a * b)
MIN = ReduceOp("min", lambda a, b: np.minimum(a, b))
MAX = ReduceOp("max", lambda a, b: np.maximum(a, b))
LAND = ReduceOp("land", lambda a, b: np.logical_and(a, b))
LOR = ReduceOp("lor", lambda a, b: np.logical_or(a, b))
BAND = ReduceOp("band", lambda a, b: a & b)
BOR = ReduceOp("bor", lambda a, b: a | b)


_CONFIG_CHOICES = {
    "bcast": ("binomial", "linear"),
    "reduce": ("binomial", "linear"),
    "allreduce": ("doubling", "reduce_bcast", "linear"),
    "allgather": ("dissemination", "ring"),
}


@dataclass(frozen=True)
class CollectiveConfig:
    """Per-communicator collective-algorithm selection.

    Each name picks the logical ledger and the fold order of one
    collective (see the module docstring); the physical plan does not
    depend on it.  The defaults are the latency-aware engine algorithms;
    pinning the naive ones is how tests cross-check the engine and how
    benchmarks measure both.  The selection must be identical on every
    rank of a communicator — configs are plumbed through
    ``spmd(comm_config=...)`` and inherited by :meth:`Communicator.split`,
    so this holds by construction.

    ``pack``/``bitmap_frontiers`` gate the zero-copy payload packing and
    bitmap frontier encodings in :mod:`repro.distmat.ops`.
    """

    bcast: str = "binomial"
    reduce: str = "binomial"
    allreduce: str = "doubling"
    allgather: str = "dissemination"
    pack: bool = True
    bitmap_frontiers: bool = True

    def __post_init__(self) -> None:
        for op, choices in _CONFIG_CHOICES.items():
            val = getattr(self, op)
            if val not in choices:
                raise ValueError(
                    f"unknown {op} algorithm {val!r}; choose from {choices}"
                )


#: The latency-aware engine defaults.
DEFAULT_CONFIG = CollectiveConfig()

#: The naive textbook baselines (and no payload packing) — what the runtime
#: shipped before the collective engine; benchmarks measure against this.
NAIVE_CONFIG = CollectiveConfig(
    bcast="linear",
    reduce="linear",
    allreduce="linear",
    allgather="ring",
    pack=False,
    bitmap_frontiers=False,
)


@dataclass
class CommStats:
    """Per-rank communication counters (messages and payload words).

    ``words`` counts 8-byte words for NumPy payloads (the unit the paper's β
    is expressed in); non-array payloads count as one word per Python object.
    ``by_alg`` breaks the engine collectives down per chosen algorithm:
    ``{"op:alg": {"calls", "messages", "words", "steps"}}`` where ``steps``
    is the algorithm's sequential round count (the latency term the α-β
    model charges), identical on every rank.

    ``messages_sent``/``words_sent``/``by_op``/``by_alg`` are the
    **logical** ledger: they count the selected algorithm's schedule and
    are invariant under aggregation.  ``frames``/``frame_words`` are the
    **physical** ledger: actual fabric deposits/ring writes.  With
    aggregation off every message is its own frame (``frames ==
    messages_sent``); with it on, coalescing and the hub plans drive
    ``frames`` well below ``messages_sent`` — the quantity BENCH gates on.
    """

    messages_sent: int = 0
    words_sent: int = 0
    by_op: dict[str, int] = field(default_factory=dict)
    by_alg: dict[str, dict[str, int]] = field(default_factory=dict)
    #: physical frames this rank put on the fabric, and the payload words
    #: they carried (>= words_sent under the hub plans: star waves move
    #: some payloads twice, trading words for a large frame reduction)
    frames: int = 0
    frame_words: int = 0
    #: total transient-failure retries and their per-op breakdown (only
    #: nonzero under fault injection; logical message counts above are
    #: unaffected by retries — a retried send still counts once)
    retries: int = 0
    retries_by_op: dict[str, int] = field(default_factory=dict)

    def record(self, op: str, payload: Any) -> int:
        """Count one message; returns its payload word count so callers can
        price it without measuring the payload twice."""
        words = _payload_words(payload)
        self.messages_sent += 1
        self.words_sent += words
        self.by_op[op] = self.by_op.get(op, 0) + 1
        return words

    def record_alg(self, op: str, alg: str, messages: int, words: int, steps: int) -> None:
        d = self.by_alg.setdefault(
            f"{op}:{alg}", {"calls": 0, "messages": 0, "words": 0, "steps": 0}
        )
        d["calls"] += 1
        d["messages"] += messages
        d["words"] += words
        d["steps"] += steps

    def record_frame(self, words: int) -> None:
        """Count one physical frame carrying ``words`` payload words."""
        self.frames += 1
        self.frame_words += words

    def record_retry(self, op: str) -> None:
        self.retries += 1
        self.retries_by_op[op] = self.retries_by_op.get(op, 0) + 1


def _payload_words(payload: Any) -> int:
    if isinstance(payload, np.ndarray):
        return (payload.nbytes + 7) // 8
    if isinstance(payload, (tuple, list)):
        return sum(_payload_words(x) for x in payload)
    return 1


def _payload_sig(payload: Any) -> tuple:
    """Canonical payload signature for the collective-trace checker.

    NumPy arrays compare by (dtype, shape) — mismatched shapes in a
    reduction combine garbage.  All numeric scalars canonicalize to one
    bucket: ``int`` on one rank vs ``np.int64`` on another is legitimate.
    """
    if isinstance(payload, np.ndarray):
        return ("ndarray", str(payload.dtype), tuple(payload.shape))
    if isinstance(payload, (bool, int, float, complex, np.generic)):
        return ("scalar",)
    return (type(payload).__name__,)


def _check_user_tag(tag: int, *, wildcard_ok: bool) -> None:
    """Reject user tags that collide with the reserved collective space."""
    if wildcard_ok and tag == ANY_TAG:
        return
    if not 0 <= tag < _RESERVED_TAG_BASE:
        raise CommError(
            f"user tag {tag} is outside the valid range [0, {_RESERVED_TAG_BASE}): "
            f"tags >= {_RESERVED_TAG_BASE} (1 << 30) are reserved for collective "
            "operations" + (" and negative tags are not wildcards here" if tag < 0 else "")
        )


def _freeze(payload: Any) -> Any:
    """Copy a payload at send time so sender-side mutation after ``send``
    returns can never be observed by the receiver (wire semantics)."""
    if isinstance(payload, np.ndarray):
        return payload.copy()
    if isinstance(payload, tuple):
        return tuple(_freeze(x) for x in payload)
    if isinstance(payload, list):
        return [_freeze(x) for x in payload]
    if isinstance(payload, (int, float, bool, str, bytes, type(None), np.generic)):
        return payload
    return copy.deepcopy(payload)


# -- fold orders ---------------------------------------------------------------
#
# The hub or root of a collective folds the per-rank values in the exact
# order the named round-based schedule would, so every operator —
# order-sensitive float sums included — gives bit-identical results.


def _doubling_fold(vals: "list[Any]", op: "ReduceOp") -> Any:
    """Recursive doubling's reduction tree: fold-in pairs for the surplus
    over a power of two, then a balanced tree with the lower rank's
    contribution on the left."""
    p = len(vals)
    if p == 1:
        return vals[0]
    pof2 = 1 << (p.bit_length() - 1)
    rem = p - pof2
    core = [op(vals[2 * i], vals[2 * i + 1]) for i in range(rem)]
    core.extend(vals[2 * rem:])
    while len(core) > 1:
        core = [op(core[i], core[i + 1]) for i in range(0, len(core), 2)]
    return core[0]


def _binomial_fold(vals: "list[Any]", op: "ReduceOp") -> Any:
    """A binomial reduce tree over ``vals`` in virtual-rank order (root
    first): virtual rank v folds in the partial of v + mask for every mask
    below its lowest set bit, its own partial on the left."""
    acc = list(vals)
    p, mask = len(acc), 1
    while mask < p:
        for v in range(0, p - mask, 2 * mask):
            acc[v] = op(acc[v], acc[v + mask])
        mask <<= 1
    return acc[0]


def _linear_fold(vals: "list[Any]", op: "ReduceOp") -> Any:
    """The root folding each peer's value in turn, left to right."""
    acc = vals[0]
    for v in vals[1:]:
        acc = op(acc, v)
    return acc


# -- logical ledgers ----------------------------------------------------------
#
# Pure functions: rank ``r``'s ordered ``(dest, words)`` sends under the
# named algorithm, exactly as the round-based schedule would issue them.


def _bcast_sends(alg: str, p: int, r: int, root: int, words: int) -> list:
    if alg == "linear":
        return [(d, words) for d in range(p) if d != root] if r == root else []
    # binomial (MPICH): rotate so the root is virtual rank 0; a rank hears
    # from its parent at its lowest set bit and forwards to children at
    # every lower offset, highest first
    vr = (r - root) % p
    mask = 1
    while mask < p and not vr & mask:
        mask <<= 1
    sends = []
    mask >>= 1
    while mask > 0:
        if vr + mask < p:
            sends.append(((vr + mask + root) % p, words))
        mask >>= 1
    return sends


def _reduce_sends(alg: str, p: int, r: int, root: int, words: int) -> list:
    """One send of the rank's partial toward the root.  ``words`` is the
    rank's own payload size, which equals its partial's for same-signature
    arrays and scalars."""
    if r == root:
        return []
    if alg == "linear":
        return [(root, words)]
    vr = (r - root) % p
    return [((vr - (vr & -vr) + root) % p, words)]


def _doubling_sends(p: int, r: int, words: int) -> list:
    """MPICH recursive doubling: the rem = p - 2^⌊log₂p⌋ surplus ranks
    fold into their neighbours, log₂ exchange rounds run on the
    power-of-two core, then the result folds back out."""
    pof2 = 1 << (p.bit_length() - 1)
    rem = p - pof2
    sends = []
    if r < 2 * rem:
        newr = -1 if r % 2 == 0 else r // 2
        if newr < 0:
            sends.append((r + 1, words))
    else:
        newr = r - rem
    if newr >= 0:
        mask = 1
        while mask < pof2:
            partner = newr ^ mask
            sends.append((partner * 2 + 1 if partner < rem else partner + rem, words))
            mask <<= 1
    if r < 2 * rem and r % 2 == 1:
        sends.append((r - 1, words))
    return sends


def _allgather_sends(alg: str, p: int, r: int, block_words: "list[int]") -> list:
    """Each message carries ``(src, block)`` pairs: one word per source
    index plus the block."""
    if alg == "ring":
        # step s forwards the block that originated s ranks to the left
        return [((r + 1) % p, 1 + block_words[(r - s) % p]) for s in range(p - 1)]
    # dissemination: round k sends the blocks r .. r+nsend-1 to r - k
    sends = []
    k = 1
    while k < p:
        nsend = min(k, p - k)
        sends.append(((r - k) % p,
                      nsend + sum(block_words[(r + i) % p] for i in range(nsend))))
        k *= 2
    return sends


def _steps(op: str, alg: str, p: int) -> int:
    """The algorithm's sequential round count (its α-β latency term)."""
    if alg == "doubling":
        return (p.bit_length() - 1) + (2 if p & (p - 1) else 0)
    if alg in ("binomial", "dissemination"):
        return log2ceil(p)
    if alg == "reduce_bcast":
        return 2 * log2ceil(p)
    if op == "allreduce":  # linear reduce + linear bcast
        return 2 * max(0, p - 1)
    return max(0, p - 1)  # linear, ring, pairwise, direct, chain


class Request:
    """Waitable handle of a nonblocking operation (``isend``/``irecv``/
    ``iallreduce``).

    ``wait()`` blocks until completion and returns the operation's value
    (``None`` for sends); ``test()`` is a nonblocking completion poll.
    Collective requests follow MPI discipline: every rank of the
    communicator must post and wait them in the same order relative to
    its other collectives.
    """

    def test(self) -> bool:  # pragma: no cover - interface default
        return True

    def wait(self) -> Any:  # pragma: no cover - interface default
        return None


class _DoneRequest(Request):
    """Already-complete request (buffered isend, singleton collectives)."""

    __slots__ = ("_value",)

    def __init__(self, value: Any = None) -> None:
        self._value = value

    def test(self) -> bool:
        return True

    def wait(self) -> Any:
        return self._value


class _RecvRequest(Request):
    """Nonblocking receive: completion is a mailbox probe."""

    __slots__ = ("_comm", "_source", "_tag", "_done", "_value")

    def __init__(self, comm: "Communicator", source: int, tag: int) -> None:
        self._comm = comm
        self._source = source
        self._tag = tag
        self._done = False
        self._value = None

    def test(self) -> bool:
        if not self._done and self._comm.probe(self._source, self._tag):
            self._value = self._comm.recv(self._source, self._tag)
            self._done = True
        return self._done

    def wait(self) -> Any:
        if not self._done:
            self._value = self._comm.recv(self._source, self._tag)
            self._done = True
        return self._value


class _AllreduceRequest(Request):
    """In-flight allreduce: the logical ledger and the up-leg of the star
    wave happened at post; ``wait()`` runs the hub fold and the down-leg.
    The overlap window is everything the rank does between post and
    wait."""

    __slots__ = ("_comm", "_seq", "_op", "_fold", "_own", "_done", "_value")

    def __init__(
        self, comm: "Communicator", seq: int, op: "ReduceOp",
        fold: "Callable[[list[Any], ReduceOp], Any]", own: Any,
    ) -> None:
        self._comm = comm
        self._seq = seq
        self._op = op
        self._fold = fold
        self._own = own
        self._done = False
        self._value = None

    def test(self) -> bool:
        comm = self._comm
        if not self._done and comm.rank != 0:
            tag = comm._coll_tag(self._seq)
            if comm.fabric.probe(comm.global_rank, comm.group[0], tag):
                self.wait()
        return self._done

    def wait(self) -> Any:
        if not self._done:
            self._value = self._comm._hub_finish(
                "allreduce", self._seq, self._own,
                lambda ups: [self._fold(ups, self._op)] * self._comm.size,
            )
            self._own = None
            self._done = True
        return self._value


def wait_all(requests: "Sequence[Request]") -> list[Any]:
    """Wait every request, returning their values in order."""
    return [req.wait() for req in requests]


class Communicator:
    """The per-rank handle of one process group.

    ``group`` lists the *global* fabric ranks belonging to this communicator,
    ordered by communicator rank; ``self.rank`` is this rank's position in
    that list.  The base communicator created by the executor covers all
    fabric ranks; sub-communicators (e.g. the process-grid row and column
    communicators used by the 2D SpMV) are created with :meth:`split` and
    inherit ``config``.
    """

    def __init__(
        self,
        fabric: Fabric,
        comm_id: int,
        group: Sequence[int],
        rank: int,
        config: "CollectiveConfig | None" = None,
    ) -> None:
        self.fabric = fabric
        self.comm_id = comm_id
        self.group = list(group)
        self.rank = rank
        self.size = len(self.group)
        self.config = DEFAULT_CONFIG if config is None else config
        self.stats = CommStats()
        #: Optional per-rank span tracer (:class:`repro.runtime.trace.Tracer`),
        #: attached by the executor under ``spmd(..., trace=...)`` and
        #: inherited by :meth:`split`.  ``None`` (the default) keeps tracing
        #: zero-cost: every hook is a single attribute check.
        self.tracer: "Any | None" = None
        self._coll_seq = 0
        if self.group[rank] < 0 or self.group[rank] >= fabric.nranks:
            raise ValueError("communicator group contains out-of-range fabric rank")
        # Per-rank coalescer outbox: dest global rank -> list of pending
        # (tag, payload, reorder_u, words).  Shared with every communicator
        # of this rank via the fabric (split children flush the same box),
        # with a private fallback for duck-typed fabrics in unit tests.
        boxes = getattr(fabric, "_outboxes", None)
        self._outbox: dict[int, list] = (
            {} if boxes is None else boxes[self.group[rank]]
        )

    # -- point to point -----------------------------------------------------

    @property
    def global_rank(self) -> int:
        return self.group[self.rank]

    def send(self, dest: int, payload: Any, tag: int = 0) -> None:
        """Deposit ``payload`` into communicator-rank ``dest``'s mailbox.

        Buffered semantics: the call returns once the (copied) payload is in
        flight, it never blocks on the receiver.
        """
        _check_user_tag(tag, wildcard_ok=False)
        tok = self._trace_begin("send", dest=dest, tag=tag)
        before = self._begin_alg()
        # A serializing fabric (process backend) encodes the payload onto a
        # real wire inside ``deliver`` — that encoding IS the copy, so the
        # defensive freeze would be a second, redundant one.
        if not self.fabric.serializes:
            payload = _freeze(payload)
        self._send_raw(dest, payload, tag, "p2p")
        self._end_alg("send", "p2p", before, 1)
        self._trace_end(tok, "p2p", 1)

    def _send_raw(self, dest: int, payload: Any, tag: int, op: str) -> None:
        words = self.stats.record(op, payload)
        self._deliver_with_faults(self.group[dest], tag, payload, op, words)

    def _fault_sleep(self, seconds: float, category: str) -> None:
        """Sleep injected adversity time, visible in traces.

        Every injected sleep (retry backoff, straggler stall) emits a
        ``cat="fault"`` span carrying ``{category, rank, seconds}`` so
        ``repro trace-report`` can attribute adversity time instead of it
        vanishing into apparent compute time.
        """
        tr = self.tracer
        if tr is None:
            time.sleep(seconds)
            return
        t0 = tr.now()
        time.sleep(seconds)
        tr.add_complete(
            "fault:delay",
            ts=t0,
            dur=tr.now() - t0,
            cat="fault",
            category=category,
            rank=self.global_rank,
            seconds=seconds,
        )

    def _deliver_with_faults(
        self, dest_global: int, tag: int, payload: Any, op: str,
        words: int = 0, defer: bool = False,
    ) -> None:
        """Deliver one envelope, absorbing injected transient failures.

        With no injector armed this is a single attribute check plus the
        dispatch — the zero-cost-when-disabled path.  Under injection the
        full per-message fault protocol (:meth:`_fault_effects`) runs
        first.  ``defer=True`` routes the envelope through the coalescer
        outbox (collective and isend traffic); ``defer=False`` keeps eager
        per-message delivery (blocking p2p ``send``, whose latency
        contract peers may rely on).
        """
        faults = self.fabric.faults
        if faults is None:
            self._dispatch(dest_global, tag, payload, None, words, defer)
            return
        reorder_u = self._fault_effects(op, dest_global, words)
        self._dispatch(dest_global, tag, payload, reorder_u, words, defer)

    def _fault_effects(self, op: str, dest_global: int, words: int) -> "float | None":
        """Run the injector's per-message protocol for one *logical*
        message and return its reorder draw.

        Transient send failures are retried with capped exponential
        backoff and counted on :class:`CommStats`; a send still failing
        after the retry budget re-raises :class:`TransientCommError` as a
        permanent failure.  Each message that survives is priced into the
        injector's deterministic model-time ledger (straggler/disruption
        factors x degraded-link α-β), and a straggling rank additionally
        serves its wall-clock stall here.  The ledgers call this once per
        message of the *logical* schedule (via :meth:`_logical_send`), so
        fault decision streams, retries and model time follow the selected
        algorithm, not the physical plan.
        """
        faults = self.fabric.faults
        policy = faults.retry
        attempt = 0
        while True:
            try:
                reorder_u = faults.on_send(self.global_rank)
            except TransientCommError:
                attempt += 1
                self.stats.record_retry(op)
                if attempt > policy.max_retries:
                    raise TransientCommError(
                        f"rank {self.global_rank}: send to fabric rank "
                        f"{dest_global} (op {op}) still failing after "
                        f"{policy.max_retries} retries"
                    ) from None
                self._fault_sleep(policy.delay(attempt), "retry-backoff")
                continue
            stall = faults.wall_delay(self.global_rank)
            if stall > 0.0:
                self._fault_sleep(stall, "straggler")
            faults.price_message(self.global_rank, dest_global, words)
            return reorder_u

    def _dispatch(
        self, dest_global: int, tag: int, payload: Any,
        reorder_u: "float | None", words: int, defer: bool,
    ) -> None:
        """Physical send: enqueue into the coalescer (deferred) or deliver
        immediately as a single-message frame."""
        if defer:
            self._outbox.setdefault(dest_global, []).append(
                (tag, payload, reorder_u, words)
            )
            return
        self.stats.record_frame(words)
        self.fabric.deliver(self.global_rank, dest_global, tag, payload, reorder_u)

    def _flush_frames(self) -> None:
        """Flush the coalescer: one frame per pending destination.

        Deterministic call sites only — entry to any blocking receive,
        every collective boundary (:meth:`_end_alg`), the hub side of a
        star wave, and :meth:`flush_sends` — so physical frame counts are
        reproducible run to run.  Emits one ``comm:flush`` span
        (``cat="flush"``) whose words equal the frame-ledger delta.
        """
        box = self._outbox
        if not box:
            return
        items = list(box.items())
        box.clear()
        tr = self.tracer
        t0 = tr.now() if tr is not None else 0.0
        fabric = self.fabric
        deliver_frame = getattr(fabric, "deliver_frame", None)
        stats = self.stats
        nmsgs = 0
        nwords = 0
        for dest, entries in items:
            words = 0
            for entry in entries:
                words += entry[3]
            if deliver_frame is not None:
                deliver_frame(
                    self.global_rank, dest,
                    [(tag, payload, u) for (tag, payload, u, _) in entries],
                )
            else:  # duck-typed fabric without frame transport
                for tag, payload, u, _ in entries:
                    fabric.deliver(self.global_rank, dest, tag, payload, u)
            stats.record_frame(words)
            nmsgs += len(entries)
            nwords += words
        if tr is not None:
            tr.add_complete(
                "comm:flush", ts=t0, dur=tr.now() - t0, cat="flush",
                frames=len(items), messages=nmsgs, words=nwords,
            )

    def flush_sends(self) -> None:
        """Flush any coalesced frames still pending toward peers.

        The transports call this when a rank's SPMD function returns (the
        end-of-program safety point); user code only needs it to push out
        ``isend`` tails before a long non-communicating stretch.
        """
        self._flush_frames()

    def _collect(self, src_global: int, tag: int) -> Any:
        """Blocking receive entry: pending coalesced frames are flushed
        first — a blocked rank must never sit on traffic its peers need
        in order to make progress."""
        if self._outbox:
            self._flush_frames()
        return self.fabric.collect(self.global_rank, src_global, tag)

    def _logical_send(self, op: str, dest: int, words: int) -> None:
        """Ledger one message of the selected algorithm's schedule:
        logical counters and the full per-message fault protocol fire
        exactly as a round-based send would; the data itself travels in
        the op's physical plan.  ``dest`` is a communicator rank (the
        injector prices per link, so destinations must match the logical
        schedule's)."""
        stats = self.stats
        stats.messages_sent += 1
        stats.words_sent += words
        stats.by_op[op] = stats.by_op.get(op, 0) + 1
        if self.fabric.faults is not None:
            self._fault_effects(op, self.group[dest], words)

    def _replay(self, op: str, sends: "list[tuple[int, int]]") -> None:
        """Ledger an algorithm's ordered ``(dest, words)`` sends."""
        for dest, words in sends:
            self._logical_send(op, dest, words)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Block until a message matching (source, tag) arrives; return its
        payload.  ``source`` is a communicator rank or ``ANY_SOURCE``."""
        _check_user_tag(tag, wildcard_ok=True)
        src_global = ANY_SOURCE if source == ANY_SOURCE else self.group[source]
        env = self._collect(src_global, tag)
        return env.payload

    def recv_with_status(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> tuple[Any, int, int]:
        """Like :meth:`recv` but also return ``(payload, source_rank, tag)``."""
        _check_user_tag(tag, wildcard_ok=True)
        src_global = ANY_SOURCE if source == ANY_SOURCE else self.group[source]
        env = self._collect(src_global, tag)
        try:
            src_local = self.group.index(env.source)
        except ValueError:  # message from outside the group (shouldn't happen)
            src_local = -1
        return env.payload, src_local, env.tag

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        _check_user_tag(tag, wildcard_ok=True)
        if self._outbox:
            self._flush_frames()  # liveness: a probe loop must not hold traffic
        src_global = ANY_SOURCE if source == ANY_SOURCE else self.group[source]
        return self.fabric.probe(self.global_rank, src_global, tag)

    def isend(self, dest: int, payload: Any, tag: int = 0) -> "Request":
        """Nonblocking buffered send: the payload is captured (copied)
        immediately, so the returned request is already complete and the
        buffer is reusable — MPI buffered-mode semantics.  The message
        rides in this rank's next coalesced frame to ``dest``, leaving at
        the next blocking call, collective boundary, or
        :meth:`flush_sends`."""
        _check_user_tag(tag, wildcard_ok=False)
        tok = self._trace_begin("isend", dest=dest, tag=tag)
        before = self._begin_alg()
        # Always freeze: with a deferred (coalesced) encode, even the
        # serializing fabric's wire copy happens after this call returns.
        payload = _freeze(payload)
        words = self.stats.record("p2p", payload)
        self._deliver_with_faults(
            self.group[dest], tag, payload, "p2p", words, defer=True
        )
        self._end_alg("isend", "p2p", before, 1, flush=False)
        self._trace_end(tok, "p2p", 1)
        return _DoneRequest()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> "Request":
        """Nonblocking receive: ``test()`` probes, ``wait()`` blocks and
        returns the payload."""
        _check_user_tag(tag, wildcard_ok=True)
        return _RecvRequest(self, source, tag)

    def sendrecv(self, dest: int, payload: Any, source: int, tag: int = 0) -> Any:
        """Combined exchange: send to ``dest`` and receive from ``source``.

        Because sends are buffered this cannot deadlock even when both sides
        call it simultaneously, matching ``MPI_Sendrecv``.
        """
        self.send(dest, payload, tag)
        return self.recv(source, tag)

    # -- collective plumbing --------------------------------------------------

    def _coll_tag(self, seq: int) -> int:
        # Python ints are unbounded, so packing (comm_id, seq) above the
        # reserved base gives every collective *instance* its own tag: a
        # wildcard receive inside one collective can never match a message
        # belonging to a different collective or communicator.
        return _RESERVED_TAG_BASE + (self.comm_id << 32) + seq

    def _coll_send(self, dest: int, payload: Any, opname: str, seq: int) -> None:
        # Deferred dispatch is safe without an extra freeze on serializing
        # fabrics: collective traffic is always flushed before the call
        # returns (its own receives, or the _end_alg boundary), so no user
        # code can mutate the payload between enqueue and wire encode.
        words = self.stats.record(opname, payload)
        self._deliver_with_faults(
            self.group[dest],
            self._coll_tag(seq),
            # Copy at send time (wire semantics): receivers own their data.
            # A serializing fabric's ring encoding already makes that copy.
            (opname, self.comm_id, seq,
             payload if self.fabric.serializes else _freeze(payload)),
            opname,
            words,
            defer=True,
        )

    def _phys_send(self, dest: int, body: Any, opname: str, seq: int) -> None:
        """One physical-plan message: enqueued into the coalescer with the
        collective's tag/wrapper but NO logical-ledger or fault effects —
        those replay separately via :meth:`_logical_send`."""
        self._dispatch(
            self.group[dest],
            self._coll_tag(seq),
            (opname, self.comm_id, seq,
             body if self.fabric.serializes else _freeze(body)),
            None,
            _payload_words(body),
            defer=True,
        )

    def _coll_recv(self, source: int, opname: str, seq: int) -> Any:
        src_global = self.group[source]
        env = self._collect(src_global, self._coll_tag(seq))
        got_op, got_comm, got_seq, payload = env.payload
        if got_op != opname or got_comm != self.comm_id or got_seq != seq:
            raise CollectiveMismatchError(
                f"rank {self.rank} (comm {self.comm_id}) in {opname}#{seq} "
                f"received {got_op}#{got_seq} from rank {source} "
                f"(comm {got_comm}): ranks entered different collectives"
            )
        return payload

    def _coll_recv_any(self, opname: str, seq: int) -> Any:
        """Root-side receive of one up message (any source)."""
        env = self._collect(ANY_SOURCE, self._coll_tag(seq))
        got_op, got_comm, got_seq, body = env.payload
        if got_op != opname or got_comm != self.comm_id or got_seq != seq:
            raise CollectiveMismatchError(
                f"root of {opname}#{seq} (comm {self.comm_id}) received "
                f"{got_op}#{got_seq} (comm {got_comm}): ranks entered "
                "different collectives"
            )
        return body

    def _hub_exchange(
        self, opname: str, seq: int, up_item: Any,
        down_items: "Callable[[list[Any]], list[Any]]",
    ) -> Any:
        """The hub star wave shared by the rootless collectives: every
        non-hub rank sends one ``(rank, item)`` frame up to comm rank 0;
        the hub computes the per-destination results with
        ``down_items(ups)`` and sends one frame back down to each rank —
        2(p-1) frames per wave, independent of the logical round count.
        Returns this rank's down payload (the hub: ``down_items(ups)[0]``).
        """
        if self.rank != 0:
            self._phys_send(0, (self.rank, up_item), opname, seq)
        return self._hub_finish(opname, seq, up_item, down_items)

    def _hub_finish(
        self, opname: str, seq: int, own: Any,
        down_items: "Callable[[list[Any]], list[Any]]",
    ) -> Any:
        """Second half of :meth:`_hub_exchange`, after the up-leg."""
        if self.rank != 0:
            return self._coll_recv(0, opname, seq)
        ups = self._gather_ups(opname, seq, own, 0)
        downs = down_items(ups)
        for dst in range(1, self.size):
            self._phys_send(dst, downs[dst], opname, seq)
        self._flush_frames()  # the hub's down-leg must not linger
        return downs[0]

    def _gather_ups(self, opname: str, seq: int, own: Any, root: int) -> "list[Any]":
        """At ``root``: collect every peer's ``(rank, item)`` frame into a
        rank-indexed list, ``own`` at ``root``."""
        ups: list[Any] = [None] * self.size
        ups[root] = own
        for _ in range(self.size - 1):
            src, item = self._coll_recv_any(opname, seq)
            ups[src] = item
        return ups

    def _next_seq(self) -> int:
        self._coll_seq += 1
        return self._coll_seq

    def _verify(self, op: str, seq: int, root: int | None = None, extra: tuple | None = None) -> None:
        """Record this rank's entry into a collective with the divergence
        checker (active only under ``spmd(..., verify=True)``).

        Raises :class:`CollectiveMismatchError` immediately when this rank's
        n-th collective disagrees with a peer's n-th collective — op, root,
        or (for reductions) operator/payload signature.

        This is also the collective-entry fault point: a plan scheduling a
        crash at this rank's Nth collective fires here, before any peer
        traffic for the collective is generated.
        """
        faults = self.fabric.faults
        if faults is not None:
            faults.on_collective(self.global_rank)
        trace = self.fabric.collective_trace
        if trace is not None:
            trace.record(self.comm_id, seq, self.rank, self.size, (op, root, extra))

    def _begin_alg(self) -> tuple[int, int]:
        """Snapshot (messages, words) so the per-algorithm delta can be
        attributed after the collective's traffic completes."""
        return self.stats.messages_sent, self.stats.words_sent

    def _end_alg(
        self, op: str, alg: str, before: tuple[int, int], steps: int,
        flush: bool = True,
    ) -> None:
        self.stats.record_alg(
            op, alg,
            self.stats.messages_sent - before[0],
            self.stats.words_sent - before[1],
            steps,
        )
        # Every collective boundary is a deterministic flush point, so
        # trailing sends (a bcast leaf, an exscan link, scattered pieces)
        # are on the wire before user code regains control.  isend opts
        # out — deferring its frame IS the point.
        if flush and self._outbox:
            self._flush_frames()

    def _trace_begin(self, opname: str, **args: Any) -> "tuple[int, int] | None":
        """Open one comm span and snapshot (messages, words) — the same
        counters :meth:`_begin_alg` snapshots, and no traffic happens
        between the two snapshot points, so a span's word delta equals its
        ``by_alg`` delta *exactly* (the cross-check invariant the traced
        benchmark asserts).  Returns ``None`` with tracing off."""
        tr = self.tracer
        if tr is None:
            return None
        tr.begin(opname, cat="comm", comm=self.comm_id, peers=self.size, **args)
        return self.stats.messages_sent, self.stats.words_sent

    def _trace_end(self, tok: "tuple[int, int] | None", alg: str, steps: int) -> None:
        if tok is None:
            return
        self.tracer.end(
            alg=alg,
            steps=steps,
            messages=self.stats.messages_sent - tok[0],
            words=self.stats.words_sent - tok[1],
        )

    # -- collectives ----------------------------------------------------------

    def barrier(self) -> None:
        """Dissemination barrier: ⌈log₂p⌉ logical rounds, one star wave."""
        self.barrier_n(1)

    def barrier_n(self, count: int) -> None:
        """``count`` consecutive barriers in one physical wave.

        Logically — ledger, verify signatures, fault points, trace spans —
        identical to calling :meth:`barrier` ``count`` times; the physical
        release is a single star wave for the whole batch (2(p-1) frames
        total), which is what lets the RMA layer's ``fence_all``/
        ``free_all`` fuse their epoch barriers.
        """
        if count <= 0:
            return
        p, r = self.size, self.rank
        steps = log2ceil(p)
        sends = [((r + (1 << i)) % p, 1) for i in range(steps)]
        first_seq = 0
        for i in range(count):
            seq = self._next_seq()
            if i == 0:
                first_seq = seq
            tok = self._trace_begin("barrier")
            self._verify("barrier", seq)
            before = self._begin_alg()
            self._replay("barrier", sends)
            self._end_alg("barrier", "dissemination", before, steps)
            self._trace_end(tok, "dissemination", steps)
        self._hub_exchange("barrier", first_seq, None, lambda ups: [None] * p)

    # -- bcast / reduce --------------------------------------------------------

    def bcast(self, payload: Any, root: int = 0) -> Any:
        """Broadcast from ``root``; returns the payload on all ranks (a
        private copy on each non-root rank).  The root sends to every peer
        directly; the ledger is the binomial tree's, or the naive
        root-sends-to-all baseline's under ``config.bcast = "linear"``."""
        seq = self._next_seq()
        tok = self._trace_begin("bcast", root=root)
        self._verify("bcast", seq, root=root)
        alg = self.config.bcast
        before = self._begin_alg()
        p, r = self.size, self.rank
        if r == root:
            out = _freeze(payload)  # the root keeps a private copy
            for dst in range(p):
                if dst != root:
                    self._phys_send(dst, out, "bcast", seq)
        else:
            out = self._coll_recv(root, "bcast", seq)
        self._replay("bcast", _bcast_sends(alg, p, r, root, _payload_words(out)))
        steps = _steps("bcast", alg, p)
        self._end_alg("bcast", alg, before, steps)
        self._trace_end(tok, alg, steps)
        return out

    def reduce(self, payload: Any, op: ReduceOp = SUM, root: int = 0) -> Any:
        """Reduction to ``root``; returns the reduced value at root and
        ``None`` elsewhere.  Every rank sends to the root directly; the
        root folds in the binomial tree's order, or left to right under
        ``config.reduce = "linear"`` (the naive baseline), and the ledger
        follows the same algorithm."""
        seq = self._next_seq()
        tok = self._trace_begin("reduce", root=root, op=op.name)
        self._verify("reduce", seq, root=root, extra=(op.name,) + _payload_sig(payload))
        alg = self.config.reduce
        p, r = self.size, self.rank
        before = self._begin_alg()
        self._replay("reduce", _reduce_sends(alg, p, r, root, _payload_words(payload)))
        if r != root:
            self._phys_send(root, (r, payload), "reduce", seq)
            out = None
        else:
            vals = self._gather_ups("reduce", seq, _freeze(payload), root)
            # the fold runs over ranks in the schedule's order: rotated so
            # the root is virtual rank 0, or root first then the rest
            order = ([(root + v) % p for v in range(p)] if alg == "binomial"
                     else [root] + [s for s in range(p) if s != root])
            fold = _binomial_fold if alg == "binomial" else _linear_fold
            out = fold([vals[s] for s in order], op)
        steps = _steps("reduce", alg, p)
        self._end_alg("reduce", alg, before, steps)
        self._trace_end(tok, alg, steps)
        return out

    # -- gather / scatter ------------------------------------------------------

    def gather(self, payload: Any, root: int = 0) -> list[Any] | None:
        """Direct gather: every rank sends its payload to ``root``; root
        returns the list ordered by rank, others return ``None``."""
        seq = self._next_seq()
        tok = self._trace_begin("gather", root=root)
        self._verify("gather", seq, root=root)
        before = self._begin_alg()
        if self.rank == root:
            out = self._gather_ups("gather", seq, _freeze(payload), root)
        else:
            self._coll_send(root, (self.rank, payload), "gather", seq)
            out = None
        steps = _steps("gather", "direct", self.size)
        self._end_alg("gather", "direct", before, steps)
        self._trace_end(tok, "direct", steps)
        return out

    def gatherv(self, payload: Any, root: int = 0) -> list[Any] | None:
        """Alias of :meth:`gather` — variable-size payloads are natural here."""
        return self.gather(payload, root)

    def scatter(self, payloads: Sequence[Any] | None, root: int = 0) -> Any:
        """Root distributes ``payloads[i]`` to rank ``i``; returns own piece."""
        seq = self._next_seq()
        tok = self._trace_begin("scatter", root=root)
        self._verify("scatter", seq, root=root)
        before = self._begin_alg()
        if self.rank == root:
            if payloads is None or len(payloads) != self.size:
                raise ValueError("scatter root must supply one payload per rank")
            for dst in range(self.size):
                if dst != root:
                    self._coll_send(dst, payloads[dst], "scatter", seq)
            out = _freeze(payloads[root])
        else:
            out = self._coll_recv(root, "scatter", seq)
        steps = _steps("scatter", "direct", self.size)
        self._end_alg("scatter", "direct", before, steps)
        self._trace_end(tok, "direct", steps)
        return out

    # -- allgather / alltoall ----------------------------------------------------

    def allgather(self, payload: Any) -> list[Any]:
        """Allgather; returns the list of payloads ordered by rank.

        One star wave carries every block.  The ledger is dissemination's
        (Bruck: ⌈log₂p⌉ rounds moving the same p-1 blocks per rank the
        ring moves in p-1 rounds) or, under ``config.allgather = "ring"``,
        the naive ring's — computable after the wave, when every rank
        holds all block sizes."""
        seq = self._next_seq()
        tok = self._trace_begin("allgather")
        self._verify("allgather", seq)
        alg = self.config.allgather
        p, r = self.size, self.rank
        before = self._begin_alg()
        out = list(self._hub_exchange(
            "allgather", seq, _freeze(payload), lambda ups: [ups] * p
        ))
        block_words = [_payload_words(b) for b in out]
        self._replay("allgather", _allgather_sends(alg, p, r, block_words))
        steps = _steps("allgather", alg, p)
        self._end_alg("allgather", alg, before, steps)
        self._trace_end(tok, alg, steps)
        return out

    def allgatherv(self, payload: Any) -> list[Any]:
        """Alias of :meth:`allgather` (payloads may differ in size)."""
        return self.allgather(payload)

    def alltoall(self, payloads: Sequence[Any]) -> list[Any]:
        """Personalized all-to-all: ``payloads[i]`` is destined for rank
        ``i``; returns the list of payloads received, indexed by source rank.

        Each rank ships its whole payload row up in one frame and the hub
        sends one repacked frame back down: word volume roughly doubles
        physically, but frames drop from p(p-1) to 2(p-1) per call — the
        α-dominated regime this engine targets.  The ledger is pairwise
        exchange's p-1 per-destination sends.
        """
        p, r = self.size, self.rank
        if len(payloads) != p:
            raise ValueError(
                f"alltoall needs exactly {p} payloads, got {len(payloads)}"
            )
        seq = self._next_seq()
        tok = self._trace_begin("alltoall")
        self._verify("alltoall", seq)
        before = self._begin_alg()
        self._replay("alltoall", [
            ((r + step) % p, _payload_words(payloads[(r + step) % p]))
            for step in range(1, p)
        ])
        row = list(payloads)
        if r == 0:
            row[0] = _freeze(row[0])  # the hub's own block skips the wire
        out = list(self._hub_exchange(
            "alltoall", seq, row,
            lambda rows: [[rows[s][d] for s in range(p)] for d in range(p)],
        ))
        steps = _steps("alltoall", "pairwise", p)
        self._end_alg("alltoall", "pairwise", before, steps)
        self._trace_end(tok, "pairwise", steps)
        return out

    def alltoallv(self, payloads: Sequence[Any]) -> list[Any]:
        """Alias of :meth:`alltoall` (variable-size payloads)."""
        return self.alltoall(payloads)

    # -- allreduce ---------------------------------------------------------------

    def allreduce(self, payload: Any, op: ReduceOp = SUM) -> Any:
        """Reduction returning the result on every rank, through one star
        wave.

        The hub folds in recursive doubling's order by default (MPICH's
        algorithm, with the fold-in/fold-out rounds for non-power-of-two
        p); ``config.allreduce`` pins "reduce_bcast" (binomial reduce to 0
        + binomial bcast, verified as those two collectives) or "linear"
        (naive linear reduce + linear bcast).  The ledger follows the same
        algorithm, charging every partial and the result at the payload's
        size.
        """
        return self._allreduce(payload, op, blocking=True)

    def iallreduce(self, payload: Any, op: ReduceOp = SUM) -> Request:
        """Nonblocking allreduce: returns a :class:`Request` whose ``wait``
        yields the reduced value on every rank.

        Ledger, divergence check, and trace span are identical to the
        blocking :meth:`allreduce` (the span is named "allreduce" so the
        trace/ledger cross-check keys line up); only completion is
        deferred.  Non-hub ranks post their up-frame immediately and the
        hub's fold + down wave runs inside ``wait`` — the window between
        post and wait is compute the caller overlaps with communication.
        """
        return self._allreduce(payload, op, blocking=False)

    def _allreduce(self, payload: Any, op: ReduceOp, blocking: bool) -> Any:
        alg = self.config.allreduce
        p, r = self.size, self.rank
        tok = self._trace_begin("allreduce", op=op.name)
        before = self._begin_alg()
        sig = (op.name,) + _payload_sig(payload)
        words = _payload_words(payload)
        seq = self._next_seq()
        if alg == "doubling":
            self._verify("allreduce", seq, extra=sig)
            self._replay("allreduce", _doubling_sends(p, r, words))
            fold = _doubling_fold
        else:
            # composed variants: verified and ledgered exactly like the
            # explicit reduce-then-bcast call sequence they are
            sub = "binomial" if alg == "reduce_bcast" else "linear"
            self._verify("reduce", seq, root=0, extra=sig)
            self._replay("reduce", _reduce_sends(sub, p, r, 0, words))
            self._verify("bcast", self._next_seq(), root=0)
            self._replay("bcast", _bcast_sends(sub, p, r, 0, words))
            fold = _binomial_fold if sub == "binomial" else _linear_fold
        if r != 0:
            self._phys_send(0, (r, payload), "allreduce", seq)
        req = _AllreduceRequest(self, seq, op, fold, _freeze(payload) if r == 0 else None)
        out = req.wait() if blocking else req
        steps = _steps("allreduce", alg, p)
        self._end_alg("allreduce", alg, before, steps)
        self._trace_end(tok, alg, steps)
        return out

    # -- prefix reductions ---------------------------------------------------------

    def exscan(self, payload: Any, op: ReduceOp = SUM) -> Any:
        """Exclusive prefix reduction along the rank chain.

        Rank 0 receives ``None`` (no predecessor contribution); rank i
        receives op-fold of payloads from ranks 0..i-1.
        """
        seq = self._next_seq()
        tok = self._trace_begin("exscan", op=op.name)
        self._verify("exscan", seq, extra=(op.name,) + _payload_sig(payload))
        before = self._begin_alg()
        prefix = None
        if self.rank > 0:
            prefix = self._coll_recv(self.rank - 1, "exscan", seq)
        if self.rank + 1 < self.size:
            mine = _freeze(payload) if prefix is None else op(prefix, payload)
            self._coll_send(self.rank + 1, mine, "exscan", seq)
        self._end_alg("exscan", "chain", before, max(0, self.size - 1))
        self._trace_end(tok, "chain", max(0, self.size - 1))
        return prefix

    def scan(self, payload: Any, op: ReduceOp = SUM) -> Any:
        """Inclusive prefix reduction along the rank chain.

        Traced as its inner :meth:`exscan` (scan itself moves no extra
        words, and a second span would double-count the chain's traffic).
        """
        prefix = self.exscan(payload, op)
        return _freeze(payload) if prefix is None else op(prefix, payload)

    # -- communicator management ----------------------------------------------

    def split(self, color: int, key: int | None = None) -> "Communicator":
        """Partition this communicator into disjoint sub-communicators.

        All ranks with equal ``color`` land in the same new communicator,
        ordered by ``(key, old rank)``.  Like ``MPI_Comm_split``, this is a
        collective over the parent communicator, so it consumes a slot of
        the same per-rank collective sequence the tagged collectives use —
        which is what lets the divergence checker catch a rank calling
        ``split`` while its peers are in ``bcast``.  The child inherits
        ``config``.
        """
        seq = self._next_seq()
        tok = self._trace_begin("split", color=color)
        self._verify("split", seq)
        before = self._begin_alg()
        key = self.rank if key is None else key
        if self._outbox:
            self._flush_frames()  # rendezvous blocks without a mailbox wait
        self.fabric.last_blocked[self.global_rank] = ("split", self.comm_id, seq)
        tr = self.tracer
        t0 = tr.now() if tr is not None else 0.0
        new_id, members_parent_ranks = self.fabric.split_rendezvous(
            self.comm_id, seq, self.size, self.rank, color, key,
            group=self.group,
        )
        if tr is not None:
            # the rendezvous is split's blocking point (last rank computes)
            tr.add_wait(tr.now() - t0)
        group = [self.group[r] for r in members_parent_ranks]
        my_pos = members_parent_ranks.index(self.rank)
        child = Communicator(self.fabric, new_id, group, my_pos, config=self.config)
        child.tracer = self.tracer
        self._end_alg("split", "rendezvous", before, 1)
        self._trace_end(tok, "rendezvous", 1)
        return child

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Communicator(id={self.comm_id}, rank={self.rank}/{self.size})"
