"""Property tests for the latency-aware collective engine.

Every engine algorithm must be output-equivalent to its naive baseline (and
to a NumPy-computed oracle) on random ragged payloads across rank counts,
including non-powers of two; ``CommStats.by_alg`` must attribute each call
to the algorithm that actually ran, with the modeled step counts.
"""

import numpy as np
import pytest

from repro.distmat.ops import allgather_values, route
from repro.graphs.rmat import er
from repro.matching.mcm_dist import run_mcm_dist
from repro.perfmodel import collectives as C
from repro.runtime import (
    DEFAULT_CONFIG,
    MAX,
    NAIVE_CONFIG,
    SUM,
    CollectiveConfig,
    spmd,
)

SIZES = [1, 2, 3, 4, 5, 7, 8, 9]


def _payload(rank, k=0, size=None, dtype=np.int64):
    """Deterministic ragged per-rank payload (some ranks contribute nothing)."""
    n = (rank * 13 + k * 5) % 7 if size is None else size
    return (np.arange(n, dtype=dtype) * 31 + rank * 1000 + k * 100).astype(dtype)


def _merged_by_alg(result):
    out = {}
    for s in result.stats:
        for key, d in s.by_alg.items():
            acc = out.setdefault(key, dict.fromkeys(d, 0))
            for f, v in d.items():
                acc[f] += v
    return out


# -- bcast / reduce ----------------------------------------------------------


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("alg", ["binomial", "linear"])
def test_bcast_algorithms_match_oracle(p, alg):
    root = p // 2

    def main(comm):
        payload = _payload(root, size=9) if comm.rank == root else None
        return comm.bcast(payload, root=root)

    res = spmd(p, main, comm_config=CollectiveConfig(bcast=alg))
    for got in res:
        assert np.array_equal(got, _payload(root, size=9))
    assert set(_merged_by_alg(res)) == {f"bcast:{alg}"}


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("alg", ["binomial", "linear"])
def test_reduce_algorithms_match_oracle(p, alg):
    root = p - 1
    want = np.sum([_payload(r, size=6) for r in range(p)], axis=0)

    def main(comm):
        return comm.reduce(_payload(comm.rank, size=6), op=SUM, root=root)

    res = spmd(p, main, comm_config=CollectiveConfig(reduce=alg))
    assert np.array_equal(res[root], want)
    for r in range(p):
        if r != root:
            assert res[r] is None
    assert set(_merged_by_alg(res)) == {f"reduce:{alg}"}


# -- allreduce ---------------------------------------------------------------


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("alg", ["doubling", "reduce_bcast", "linear"])
@pytest.mark.parametrize("op,np_op", [(SUM, np.sum), (MAX, np.max)])
def test_allreduce_algorithms_match_oracle(p, alg, op, np_op):
    want = np_op([_payload(r, size=5) for r in range(p)], axis=0)

    def main(comm):
        return comm.allreduce(_payload(comm.rank, size=5), op=op)

    res = spmd(p, main, comm_config=CollectiveConfig(allreduce=alg))
    for got in res:
        assert np.array_equal(got, want)
    assert f"allreduce:{alg}" in _merged_by_alg(res)


def test_allreduce_algorithms_agree_on_scalars():
    for alg in ("doubling", "reduce_bcast", "linear"):
        res = spmd(
            5,
            lambda comm: comm.allreduce(comm.rank + 1, op=SUM),
            comm_config=CollectiveConfig(allreduce=alg),
        )
        assert list(res) == [15] * 5


# -- allgather(v) ------------------------------------------------------------


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("alg", ["dissemination", "ring"])
def test_allgatherv_ragged_payloads_match_oracle(p, alg):
    want = [_payload(r) for r in range(p)]  # ragged, some empty

    def main(comm):
        return comm.allgatherv(_payload(comm.rank))

    res = spmd(p, main, comm_config=CollectiveConfig(allgather=alg))
    for got in res:
        assert len(got) == p
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    assert set(_merged_by_alg(res)) == {f"allgather:{alg}"}


# -- alltoall(v) -------------------------------------------------------------


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("alg", ["pairwise"])
def test_alltoallv_ragged_payloads_match_oracle(p, alg):
    def main(comm):
        payloads = [_payload(comm.rank, k=d) for d in range(p)]
        return comm.alltoallv(payloads)

    res = spmd(p, main)
    for r in range(p):
        got = res[r]
        assert len(got) == p
        for s in range(p):
            assert np.array_equal(got[s], _payload(s, k=r))
    assert set(_merged_by_alg(res)) == {f"alltoall:{alg}"}


@pytest.mark.parametrize("p", [4, 5, 9])
def test_alltoall_default_is_pairwise(p):
    # pairwise exchange is the one alltoall ledger: its per-destination
    # sends are known to the sender, so the hub plan replays them exactly
    def main(comm):
        return comm.alltoall([np.arange(2, dtype=np.int64)] * comm.size)

    res = spmd(p, main)
    assert set(_merged_by_alg(res)) == {"alltoall:pairwise"}


# -- step accounting (the ≥2× latency win at p=9) ----------------------------


def test_step_counts_at_p9_engine_vs_naive():
    def main(comm):
        comm.bcast(np.arange(3), root=0)
        comm.allreduce(np.arange(3), op=SUM)
        comm.allgatherv(np.arange(3))
        return None

    eng = _merged_by_alg(spmd(9, main, comm_config=DEFAULT_CONFIG))
    nai = _merged_by_alg(spmd(9, main, comm_config=NAIVE_CONFIG))
    # per-rank per-call steps: binomial/dissemination ⌈log₂9⌉=4 vs 8 (p-1);
    # doubling 3+2 (non-power-of-two fold) vs 16 (linear reduce+bcast)
    assert eng["bcast:binomial"]["steps"] == 9 * 4
    assert eng["allgather:dissemination"]["steps"] == 9 * 4
    assert eng["allreduce:doubling"]["steps"] == 9 * 5
    assert nai["bcast:linear"]["steps"] == 9 * 8
    assert nai["allgather:ring"]["steps"] == 9 * 8
    assert nai["allreduce:linear"]["steps"] == 9 * 16
    for op, eng_key, nai_key in [
        ("bcast", "bcast:binomial", "bcast:linear"),
        ("allgather", "allgather:dissemination", "allgather:ring"),
        ("allreduce", "allreduce:doubling", "allreduce:linear"),
    ]:
        assert 2 * eng[eng_key]["steps"] <= nai[nai_key]["steps"], op


#: α-only (α=1, β=0) perfmodel price of one call, per runtime op:alg key;
#: the perfmodel calls dissemination allgather "doubling"
_ALPHA_PRICE = {
    "barrier:dissemination": lambda p: C.barrier_dissemination(p, 1.0),
    "bcast:binomial": lambda p: C.bcast_binomial(p, 1.0, 0.0, 1.0),
    "bcast:linear": lambda p: C.bcast_linear(p, 1.0, 0.0, 1.0),
    "reduce:binomial": lambda p: C.reduce_binomial(p, 1.0, 0.0, 1.0),
    "reduce:linear": lambda p: C.reduce_linear(p, 1.0, 0.0, 1.0),
    "allreduce:doubling": lambda p: C.allreduce(p, 1.0, 0.0, 1.0, "doubling"),
    "allreduce:reduce_bcast": lambda p: C.allreduce(p, 1.0, 0.0, 1.0, "reduce_bcast"),
    "allreduce:linear": lambda p: C.allreduce(p, 1.0, 0.0, 1.0, "linear"),
    "allgather:dissemination": lambda p: C.allgather(p, 1.0, 0.0, 1.0, "doubling"),
    "allgather:ring": lambda p: C.allgather(p, 1.0, 0.0, 1.0, "ring"),
    "alltoall:pairwise": lambda p: C.alltoallv(p, 1.0, 0.0, 1.0, "pairwise"),
    "gather:direct": lambda p: C.gather_direct(p, 1.0, 0.0, 1.0),
    "scatter:direct": lambda p: C.scatter_direct(p, 1.0, 0.0, 1.0),
}


def _every_op(comm):
    a = np.arange(3, dtype=np.int64)
    comm.barrier()
    comm.bcast(a, root=0)
    comm.reduce(a, op=SUM, root=0)
    comm.allreduce(a, op=SUM)
    comm.allgatherv(a)
    comm.alltoallv([a] * comm.size)
    comm.gather(a)
    comm.scatter([a] * comm.size if comm.rank == 0 else None)
    return None


@pytest.mark.parametrize("p", range(1, 10))
@pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, NAIVE_CONFIG,
                                 CollectiveConfig(allreduce="reduce_bcast")],
                         ids=["engine", "naive", "reduce_bcast"])
def test_steps_per_call_equal_alpha_only_price(p, cfg):
    """Runtime step accounting and α-β pricing cannot drift apart: every
    rank's ``by_alg`` steps per call equal the perfmodel's latency term."""
    res = spmd(p, _every_op, comm_config=cfg)
    for stats in res.stats:
        for key, d in stats.by_alg.items():
            assert d["steps"] == d["calls"] * _ALPHA_PRICE[key](p), (key, p)
    covered = {k for s in res.stats for k in s.by_alg}
    assert len(covered) == 8


def test_by_alg_words_account_for_all_collective_traffic():
    def main(comm):
        comm.allgatherv(np.arange(comm.rank + 1, dtype=np.int64))
        comm.alltoallv([np.arange(2, dtype=np.int64)] * comm.size)
        return None

    res = spmd(4, main)
    total_by_alg = sum(d["words"] for d in _merged_by_alg(res).values())
    assert total_by_alg == res.total_words


# -- config plumbing ---------------------------------------------------------


def test_config_validation_rejects_unknown_algorithms():
    with pytest.raises(ValueError, match="unknown bcast algorithm"):
        CollectiveConfig(bcast="tree-of-life")
    with pytest.raises(ValueError, match="unknown allgather algorithm"):
        CollectiveConfig(allgather="auto")


def test_split_inherits_config():
    cfg = CollectiveConfig(allgather="ring", pack=False)

    def main(comm):
        child = comm.split(color=comm.rank % 2)
        return child.config is comm.config

    res = spmd(4, main, comm_config=cfg)
    assert all(res)


# -- dtype preservation (route / allgather_values) ---------------------------


@pytest.mark.parametrize("pack", [True, False])
def test_route_preserves_dtypes_including_empty_results(pack):
    cfg = CollectiveConfig(pack=pack)

    def main(comm):
        # every rank sends only to rank 0: all other ranks receive nothing
        dest = np.zeros(3, dtype=np.int64)
        a = np.arange(3, dtype=np.int32) + comm.rank
        b = (np.arange(3, dtype=np.float64) + comm.rank) / 2
        c = np.full(3, comm.rank, dtype=np.uint8)
        ra, rb, rc = route(comm, dest, a, b, c)
        return ra.dtype, rb.dtype, rc.dtype, ra.size

    res = spmd(4, main, comm_config=cfg)
    for r, (dta, dtb, dtc, n) in enumerate(res):
        assert (dta, dtb, dtc) == (np.dtype(np.int32), np.dtype(np.float64), np.dtype(np.uint8))
        assert n == (12 if r == 0 else 0)


@pytest.mark.parametrize("pack", [True, False])
def test_route_delivers_parallel_arrays_in_source_order(pack):
    cfg = CollectiveConfig(pack=pack)

    def main(comm):
        p = comm.size
        dest = np.arange(p, dtype=np.int64)  # one entry per destination
        vals = np.full(p, comm.rank * 10, dtype=np.int16)
        tags = np.arange(p, dtype=np.int64) + comm.rank * 100
        rv, rt = route(comm, dest, vals, tags)
        return rv.tolist(), rt.tolist()

    res = spmd(4, main, comm_config=cfg)
    for r, (rv, rt) in enumerate(res):
        assert rv == [s * 10 for s in range(4)]
        assert rt == [r + s * 100 for s in range(4)]


def test_allgather_values_preserves_dtype_when_all_empty():
    def main(comm):
        out = allgather_values(comm, np.empty(0, dtype=np.float32))
        return out.dtype, out.size

    for dt, n in spmd(3, main):
        assert dt == np.dtype(np.float32)
        assert n == 0


# -- end-to-end bit-identity -------------------------------------------------

CONFIG_VARIANTS = {
    "engine": None,
    "naive": NAIVE_CONFIG,
    "pinned": CollectiveConfig(allreduce="reduce_bcast"),
    "no-pack": CollectiveConfig(pack=False, bitmap_frontiers=False),
}


@pytest.mark.parametrize("grid", [(1, 1), (2, 2), (3, 3), (2, 3)],
                         ids=lambda g: f"{g[0]}x{g[1]}")
def test_mate_vectors_bit_identical_across_collective_configs(grid):
    coo = er(scale=6, seed=3)
    ref = None
    for name, cfg in CONFIG_VARIANTS.items():
        mate_r, mate_c, _ = run_mcm_dist(
            coo, *grid, direction="auto", comm_config=cfg
        )
        if ref is None:
            ref = (mate_r, mate_c)
        else:
            assert np.array_equal(mate_r, ref[0]), name
            assert np.array_equal(mate_c, ref[1]), name
