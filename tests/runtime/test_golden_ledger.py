"""Golden logical ledger of every collective algorithm at p = 1..9.

Each collective's physical plan is fixed per op (hub star, direct
root<->peers, or chain); the configured algorithm name only selects the
*logical* ledger a rank charges and the fold order the hub or root
applies.  ``data/golden_ledger.json`` pins both.  It was recorded from
the round-based transport, in which every logical message was a real
send, so it is the reference the analytic ledgers must reproduce:

* every rank's ordered logical sends ``(op, dest, words)`` — observed at
  the per-message fault hook, which is where fault draws, model-time
  pricing and retries happen;
* every rank's ``by_alg`` ledger;
* a digest of every rank's results, so reductions stay bit-identical
  (the float payloads below are chosen so the fold order shows in the
  bits).

Regenerate (only when a ledger change is intended) with::

    PYTHONPATH=src python -m tests.runtime.test_golden_ledger --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import MAX, SUM, CollectiveConfig, spmd
from repro.runtime.comm import Communicator
from repro.runtime.faults import FaultPlan

GOLDEN = Path(__file__).parent / "data" / "golden_ledger.json"
SIZES = range(1, 10)

#: three configs that together cover every remaining op×alg name
CONFIGS = {
    "tree": dict(bcast="binomial", reduce="binomial", allreduce="doubling",
                 allgather="dissemination"),
    "linear": dict(bcast="linear", reduce="linear", allreduce="linear",
                   allgather="ring"),
    "composed": dict(bcast="binomial", reduce="binomial",
                     allreduce="reduce_bcast", allgather="dissemination"),
}


def _canon(x) -> str:
    """Bit-exact canonical text of a (nested) collective result."""
    if isinstance(x, np.ndarray):
        return f"nd:{x.dtype}:{x.shape}:{x.tobytes().hex()}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in x) + "]"
    if isinstance(x, float):
        return f"f:{x.hex()}"
    if isinstance(x, np.generic):
        return f"g:{x.dtype}:{x.tobytes().hex()}"
    return f"{type(x).__name__}:{x!r}"


def _program(comm):
    p, r = comm.size, comm.rank
    # exactly rounded arithmetic only; signs and magnitudes (16 decades)
    # vary per rank and element, so a change of fold order shows in the bits
    k = np.arange(6)
    f = (k + 1.0) / (r + 3) * 10.0 ** (((7 * r + 3 * k) % 5) * 4) * (-1.0) ** (r + k)
    out = [
        comm.bcast(np.arange(5) + 7 if r == p // 2 else None, root=p // 2),
        comm.bcast(3.5 if r == 0 else None),
        comm.reduce(f, op=SUM, root=p - 1),
        comm.reduce(r + 1, op=MAX),
        comm.allreduce(f, op=SUM),
        comm.allreduce(np.arange(4) * r, op=MAX),
        comm.allreduce(r + 0.25, op=SUM),
        comm.iallreduce(f * 3.0, op=SUM).wait(),
        # ragged, with rank 0 contributing an empty block
        comm.allgatherv(np.arange((r * 13) % 7, dtype=np.int64)),
        comm.allgatherv(np.empty(0, dtype=np.float64)),
        comm.alltoallv([np.arange((r + d) % 4, dtype=np.int32) for d in range(p)]),
        comm.gather(f[: r % 3]),
        comm.scatter([np.full(d % 3, d) for d in range(p)] if r == 0 else None),
        comm.exscan(f, op=SUM),
    ]
    comm.barrier_n(3)
    comm.barrier()
    return hashlib.sha256(_canon(out).encode()).hexdigest()[:16]


def record(make_config=lambda kw: CollectiveConfig(**kw)) -> dict:
    """Run the program for every config and p; return the ledger document."""
    doc: dict = {}
    orig = Communicator._fault_effects
    sends: dict = {}

    def hook(self, op, dest_global, words):
        sends[self.global_rank].append([op, dest_global, words])
        return orig(self, op, dest_global, words)

    Communicator._fault_effects = hook
    try:
        for name, kw in CONFIGS.items():
            for p in SIZES:
                sends.clear()
                sends.update({g: [] for g in range(p)})
                # an empty fault plan arms the per-message hook and nothing else
                res = spmd(p, _program, comm_config=make_config(kw),
                           faults=FaultPlan(), timeout=30)
                doc[f"{name}/p={p}"] = [
                    {"sends": sends[g], "by_alg": res.stats[g].by_alg,
                     "result": res[g]}
                    for g in range(p)
                ]
    finally:
        Communicator._fault_effects = orig
    return doc


@pytest.fixture(scope="module")
def current():
    return record()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_config_and_size(golden):
    assert set(golden) == {f"{n}/p={p}" for n in CONFIGS for p in SIZES}


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("p", SIZES)
def test_ledger_matches_golden(current, golden, name, p):
    key = f"{name}/p={p}"
    for g, (cur, ref) in enumerate(zip(current[key], golden[key])):
        assert cur["sends"] == ref["sends"], f"{key} rank {g}: logical sends"
        assert cur["by_alg"] == ref["by_alg"], f"{key} rank {g}: by_alg"
        assert cur["result"] == ref["result"], f"{key} rank {g}: results"


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    if "--write" in sys.argv:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(record(), separators=(",", ":")) + "\n")
        print(f"wrote {GOLDEN}")
