"""The four benchmark workloads: how each makes an input, solves one
request, checks the answer and runs its serial floor.

A run draws a stream of fresh inputs from its seed (input ``k`` of seed
``s`` uses generator seed ``s * 100_000 + k``).  Auction rounds differ about
2x and BFS supersteps about 1.5x between draws of one generator, so a run
that timed a single input would mostly measure which graph its seed drew;
the median over a few dozen draws is steady while every solve keeps the
shape the workload stands for.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from repro.graphs import rmat, suite
from repro.graphs.generators import edge_weights
from repro.matching import (
    auction_mwm_serial,
    hungarian_mwm,
    is_valid_matching,
    maximum_matching,
    run_mwm_dist,
    verify_maximum,
)
from repro.matching.mcm_dist import run_mcm_dist
from repro.runtime import FileCheckpointStore, run_mcm_dist_resilient
from repro.sparse.csc import CSC

#: deadlock window handed to every solve; a hung solve fails, not the run
SOLVE_TIMEOUT = 60.0
EPSILON = 0.05


@dataclass
class Input:
    seed: int
    coo: object
    weights: "np.ndarray | None"
    gen_s: float


def signature(mate_r: np.ndarray, mate_c: np.ndarray, stats) -> tuple:
    """What must repeat exactly across solves of one input: the mates and
    the logical/physical counters."""
    digest = hashlib.sha1(mate_r.tobytes() + mate_c.tobytes()).hexdigest()
    supersteps = stats.iterations + stats.auction_rounds
    return (digest, stats.comm_messages, stats.frames, supersteps)


class Workload:
    """A named workload; subclasses fill in generation, solving and checks.

    ``workdir`` receives the program's temporary files (checkpoints); the
    benchmark points it inside the checkout it runs from.
    """

    backend = "thread"

    def __init__(self, name: str) -> None:
        self.name = name
        self.workdir = "."

    def input_seed(self, seed: int, k: int) -> int:
        return seed * 100_000 + k

    def generate(self, seed: int):
        raise NotImplementedError

    def solve(self, inp: Input, pr: int = 1, pc: int = 2, trace=False):
        raise NotImplementedError

    def serial(self, inp: Input):
        raise NotImplementedError

    def check(self, inp: Input, mate_r, mate_c, stats) -> "str | None":
        """Full check of one solve; a message on failure."""
        raise NotImplementedError


class McmWorkload(Workload):
    """Maximum cardinality matching through ``run_mcm_dist`` (thread
    backend, mindegree initializer)."""

    def __init__(self, name: str, graph: str, reduction: int) -> None:
        super().__init__(name)
        self.graph, self.reduction = graph, reduction

    def generate(self, seed):
        return suite.load(self.graph, self.reduction, seed), None

    def solve(self, inp, pr=1, pc=2, trace=False):
        return run_mcm_dist(
            inp.coo, pr, pc, init="mindegree", backend=self.backend,
            timeout=SOLVE_TIMEOUT, trace=trace,
        )

    def serial(self, inp):
        return maximum_matching(inp.coo, init="mindegree")

    def check(self, inp, mate_r, mate_c, stats):
        # a valid matching with a König vertex cover of equal size is
        # maximum: the same verdict as comparing with a serial solver's
        # cardinality, at a tenth of the cost on the larger inputs
        if not verify_maximum(CSC.from_coo(inp.coo), mate_r, mate_c):
            return "not a maximum matching (König certificate failed)"
        return None


class JobsWorkload(Workload):
    """Small MCM requests run the way the scenario runner runs them: a
    resilient job on forked rank processes that checkpoints every phase
    into a fresh directory, no initializer, no faults."""

    backend = "process"
    check = McmWorkload.check

    def __init__(self, name: str, scale: int) -> None:
        super().__init__(name)
        self.scale = scale

    def generate(self, seed):
        return rmat.g500(self.scale, seed), None

    def solve(self, inp, pr=1, pc=2, trace=False):
        with tempfile.TemporaryDirectory(prefix="ck-", dir=self.workdir) as ckdir:
            return run_mcm_dist_resilient(
                inp.coo, pr, pc, checkpoint_every=1,
                checkpoint_store=FileCheckpointStore(ckdir),
                backend=self.backend, init="none",
                timeout=SOLVE_TIMEOUT, trace=trace,
            )

    def serial(self, inp):
        return maximum_matching(inp.coo, init=None)


class MwmWorkload(Workload):
    """ε-scaled auction for maximum weight matching (thread backend)."""

    def __init__(self, name: str, scale: int) -> None:
        super().__init__(name)
        self.scale = scale

    def generate(self, seed):
        coo = rmat.er(self.scale, seed)
        return coo, edge_weights(coo, "uniform", seed)

    def solve(self, inp, pr=1, pc=2, trace=False):
        return run_mwm_dist(
            inp.coo, inp.weights, pr, pc, epsilon=EPSILON,
            backend=self.backend, timeout=SOLVE_TIMEOUT, trace=trace,
        )

    def serial(self, inp):
        coo = inp.coo
        return auction_mwm_serial(
            coo.nrows, coo.ncols, coo.rows, coo.cols, inp.weights, epsilon=EPSILON
        )

    def check(self, inp, mate_r, mate_c, stats):
        coo = inp.coo
        if not is_valid_matching(CSC.from_coo(coo), mate_r, mate_c):
            return "not a valid matching"
        tr, tc, info = self.serial(inp)
        if not (np.array_equal(tr, mate_r) and np.array_equal(tc, mate_c)):
            return "mates differ from the serial auction twin"
        if info["weight"] != stats.matching_weight or info["rounds"] != stats.auction_rounds:
            return (
                f"weight/rounds {stats.matching_weight}/{stats.auction_rounds} != "
                f"twin {info['weight']}/{info['rounds']}"
            )
        _, _, opt = hungarian_mwm(coo.nrows, coo.ncols, coo.rows, coo.cols, inp.weights)
        if stats.matching_weight < (1.0 - EPSILON) * opt:
            return f"weight {stats.matching_weight} < (1-eps) * optimum {opt}"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        McmWorkload("mcm-road", graph="road_usa", reduction=8192),
        McmWorkload("mcm-kron", graph="kron_g500-logn21", reduction=64),
        MwmWorkload("mwm-auction", scale=6),
        JobsWorkload("mcm-jobs", scale=10),
    )
}


def shm_segments() -> "set[str]":
    """Names in the shared-memory namespace (empty where there is none)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()
