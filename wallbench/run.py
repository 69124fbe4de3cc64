"""Wall-clock benchmark of the matching workloads on a 1x2 grid.

Run from the root of a checkout::

    python3 wallbench/run.py --workload mcm-road --seed 1 --seconds 25 --trace 0

``--trace 0`` solves the workload's inputs in a closed loop with tracing off
and prints the end-to-end metrics; ``--trace 1`` interleaves untraced and
traced solves and prints the per-layer metrics.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the line before it carries the environment and sample counts.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "solve_s_p50": "s", "cpu_s_per_solve": "s", "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER = {
    "runtime.wait_s": "s", "runtime.collective_s": "s", "runtime.flush_s": "s",
    "runtime.pack_s": "s", "runtime.launch_s": "s", "runtime.checkpoint_s": "s",
    "runtime.checkpoint_words": "count", "runtime.collectives": "count",
    "runtime.comm_messages": "count", "runtime.frames": "count",
    "runtime.frame_words": "count", "runtime.total_words": "count",
    "runtime.frames_per_message": "ratio",
    "distmat.spmv_s": "s", "distmat.route_s": "s", "distmat.build_s": "s",
    "kernels.s": "s", "kernels.calls": "count",
    "matching.init_s": "s", "matching.augment_s": "s", "matching.loop_s": "s",
    "matching.auction_kernels_s": "s",
    "matching.phases": "count", "matching.supersteps": "count",
    "matching.edges_examined": "count", "matching.bids": "count",
    "matching.useful_bid_ratio": "ratio", "matching.lone_bidder_round_frac": "ratio",
    "matching.bidders_per_round_p50": "count", "matching.us_per_superstep": "us",
    "floor.grid1x1_s": "s", "floor.serial_s": "s", "floor.runtime_tax": "ratio",
    "grid9.comm_messages": "count", "grid9.frames": "count",
    "grid9.total_words": "count", "grid9.supersteps": "count",
    "graphs.gen_s": "s", "host.calib_s": "s",
    "trace.overhead": "ratio", "trace.unattributed_frac": "ratio",
}
#: solves per floor measurement (1x1 grid, serial code)
FLOOR_REPS = 3
#: count metrics average over this many first inputs of the run's stream,
#: so they repeat exactly across runs of one seed
COUNT_INPUTS = 4


#: iterations of the calibration loop, and its time on the reference host
#: (2-vCPU VM, Python 3.11); see ``host_scaled``
CALIB_LOOPS = 100_000
CALIB_REF_S = 0.007


class Step(NamedTuple):
    """One input of the stream: its generation time, its set-up sample
    (generation plus first solve), the first and second solve times, the
    second solve's CPU and stats, and the calibration taken just before the
    set-up sample and just before the second solve.  It holds no input
    arrays, so a long run's memory does not grow with the number of
    inputs."""

    gen_s: float
    setup_s: float
    first_s: float
    second_s: float
    second_cpu: float
    stats: object
    calib_setup: float
    calib_second: float


def calibrate() -> float:
    """A fixed pure-Python loop; its time tracks the host, not the program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIB_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def host_scaled(seconds: float, calib: float) -> float:
    """``seconds`` measured right after a calibration that took ``calib``,
    restated at the reference host's speed.

    The shared hosts this runs on change speed by up to a third for minutes
    at a time, and the calibration loop slows with them; a raw median would
    measure the host's mood as much as the program."""
    return seconds * CALIB_REF_S / calib


def cpu_seconds() -> float:
    """User+system CPU of this process and every reaped child."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process or the largest reaped child (Linux: KiB)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def high_percentile(values: "list[float]") -> "tuple[int, float] | None":
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75):
        if len(ordered) * (100 - p) / 100 >= 10:
            return p, ordered[min(len(ordered) - 1, math.ceil(p / 100 * len(ordered)) - 1)]
    return None


def environment(wl) -> dict:
    from repro.kernels import kernel_backend
    import numpy

    return {
        "workload": wl.name, "backend": wl.backend, "grid": "1x2",
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "kernel_backend": kernel_backend(),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


class Bench:
    """One run: the input stream, the attempt/failure ledger and the checks."""

    def __init__(self, wl, seed: int) -> None:
        self.wl, self.seed = wl, seed
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.first_inputs = []  # (input, stats) of the first COUNT_INPUTS inputs

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)

    def attempt(self, inp, **kw):
        """One solve; returns ``(result, seconds, cpu)`` or ``None`` if it
        raised or left shared memory or rank processes behind."""
        from workloads import shm_segments

        process = self.wl.backend == "process"
        before = shm_segments() if process else None
        self.attempted += 1
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            res = self.wl.solve(inp, **kw)
        except Exception as exc:  # noqa: BLE001 - a failed solve is counted, not fatal
            self.fail(f"seed {inp.seed}: {type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        if process:
            leaked = shm_segments() - before
            alive = multiprocessing.active_children()
            if leaked or alive:
                self.fail(f"seed {inp.seed}: left behind shm {sorted(leaked)} procs {alive}")
                return None
        return res, dt, cpu

    def step(self, k: int, second: dict, around=nullcontext) -> "Step | None":
        """Input ``k``: generate it, solve it (the set-up sample), solve it
        again with ``second`` kwargs inside ``around()``, and check both
        outside the timed windows.  ``None`` when either solve failed."""
        from workloads import Input, signature

        s = self.wl.input_seed(self.seed, k)
        calib_setup = calibrate()
        t0 = time.perf_counter()
        coo, weights = self.wl.generate(s)
        inp = Input(s, coo, weights, time.perf_counter() - t0)
        first = self.attempt(inp)
        calib_second = calibrate()
        with around():
            again = self.attempt(inp, **second)
        if first is None:
            if again is not None:
                self.fail(f"seed {s}: second solve of an input whose first failed")
            return None
        why = self.wl.check(inp, *first[0])
        if why is not None:
            self.fail(f"seed {s}: {why}")
            if again is not None:
                self.fail(f"seed {s}: second solve of a failed input")
            return None
        if again is None:
            return None
        if signature(*again[0]) != signature(*first[0]):
            self.fail(f"seed {s}: result or counters differ between two solves")
            return None
        if len(self.first_inputs) < COUNT_INPUTS:
            self.first_inputs.append((inp, first[0][2]))
        return Step(
            inp.gen_s, inp.gen_s + first[1], first[1], again[1], again[2], again[0][2],
            calib_setup, calib_second,
        )

    def counts(self) -> dict:
        """Counters averaged over the first COUNT_INPUTS inputs, so they
        repeat exactly across runs of one seed."""
        st = [s for _, s in self.first_inputs]
        n = len(st)

        def mean(fn):
            return sum(fn(s) for s in st) / n

        bids = sum(s.bids_placed for s in st)
        return {
            "runtime.checkpoint_words": mean(lambda s: s.checkpoint_words),
            "runtime.collectives": mean(
                lambda s: sum(v["calls"] for v in (s.comm_by_alg or {}).values())
            ),
            "runtime.comm_messages": mean(lambda s: s.comm_messages),
            "runtime.frames": mean(lambda s: s.frames),
            "runtime.frame_words": mean(lambda s: s.frame_words),
            "runtime.total_words": mean(lambda s: s.total_words),
            "runtime.frames_per_message": (
                sum(s.frames for s in st) / max(1, sum(s.comm_messages for s in st))
            ),
            "matching.phases": mean(lambda s: s.phases),
            "matching.supersteps": mean(lambda s: s.iterations + s.auction_rounds),
            "matching.edges_examined": mean(lambda s: s.edges_examined),
            "matching.bids": mean(lambda s: s.bids_placed),
            "matching.useful_bid_ratio": sum(s.price_updates for s in st) / bids if bids else 0.0,
        }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def stream(bench, seconds: float, second: dict, around=nullcontext):
    """Closed loop over fresh inputs for ``seconds`` (at least
    COUNT_INPUTS of them); yields the Step of every input that passed."""
    deadline = time.perf_counter() + seconds
    k = 0
    while k < COUNT_INPUTS or time.perf_counter() < deadline:
        got = bench.step(k, second, around)
        k += 1
        if got is not None:
            yield got


def end_to_end(bench, seconds: float) -> tuple[dict, dict]:
    steps = list(stream(bench, seconds, {}))
    times = [host_scaled(st.second_s, st.calib_second) for st in steps]
    metrics = {
        "solve_s_p50": median(times),
        "cpu_s_per_solve": median([host_scaled(st.second_cpu, st.calib_second) for st in steps]),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": median([host_scaled(st.setup_s, st.calib_setup) for st in steps]),
    }
    hp = high_percentile(times)
    info = {
        "inputs": len(steps),
        "solve_s_high": {"p": hp[0], "value": hp[1]} if hp else None,
        "raw_s": {
            "solve_p50": median([st.second_s for st in steps]),
            "cpu_per_solve": median([st.second_cpu for st in steps]),
            "setup": median([st.setup_s for st in steps]),
        },
        "host_calib_s": median([st.calib_second for st in steps]),
    }
    return metrics, info


#: per-layer metric -> key of :func:`layers.solve_layers`' record
LAYER_KEYS = {
    "runtime.wait_s": "runtime.wait", "runtime.collective_s": "runtime.collective",
    "runtime.flush_s": "runtime.flush", "runtime.pack_s": "runtime.pack",
    "runtime.launch_s": "runtime.launch", "runtime.checkpoint_s": "runtime.checkpoint",
    "distmat.spmv_s": "distmat.spmv", "distmat.route_s": "distmat.route",
    "distmat.build_s": "distmat.build", "kernels.s": "kernels",
    "matching.init_s": "matching.init",
    "matching.augment_s": "matching.augment", "matching.loop_s": "matching.loop",
    "matching.auction_kernels_s": "matching.auction_kernels",
    "trace.unattributed_frac": "unattributed_frac",
}


def per_layer(bench, seconds: float) -> tuple[dict, dict]:
    """Untraced first solve, then a traced second solve under the shims,
    per input; floors and 3x3 counts on the run's first input."""
    from layers import Shims, solve_layers
    from workloads import MwmWorkload

    wl = bench.wl
    shims = Shims()
    steps, records = [], []
    for st in stream(bench, seconds, {"trace": "wall"}, shims.installed):
        steps.append(st)
        records.append(solve_layers(st.stats.trace, shims.spmd_walls[-1]))
        st.stats.trace = None
    m = {name: median([r[key] for r in records]) for name, key in LAYER_KEYS.items()}
    m.update(bench.counts())
    counted_records = records[:COUNT_INPUTS]
    m["kernels.calls"] = sum(r["kernels.calls"] for r in counted_records) / len(counted_records)
    m["matching.us_per_superstep"] = median([
        1e6 * st.first_s / (st.stats.iterations + st.stats.auction_rounds) for st in steps
    ])

    counted = [inp for inp, _ in bench.first_inputs]
    if isinstance(wl, MwmWorkload):
        # the serial twin runs the distributed auction's rounds exactly;
        # its compute_bids calls give the bidders of every round
        with shims.installed():
            for inp in counted:
                wl.serial(inp)
    rounds = shims.bidders
    m["matching.lone_bidder_round_frac"] = (
        sum(1 for b in rounds if b == 1) / len(rounds) if rounds else 0.0
    )
    m["matching.bidders_per_round_p50"] = median(rounds)

    first, first_stats = bench.first_inputs[0]
    grid1 = []
    for _ in range(FLOOR_REPS):
        got = bench.attempt(first, pr=1, pc=1)
        if got is not None:
            grid1.append(got[1])
    serial = []
    for _ in range(FLOOR_REPS):
        t0 = time.perf_counter()
        mate_r = wl.serial(first)[0]
        serial.append(time.perf_counter() - t0)
    if int((mate_r >= 0).sum()) != first_stats.final_cardinality:
        bench.fail(f"seed {first.seed}: cardinality differs from the serial code's")
    m["floor.grid1x1_s"] = median(grid1)
    m["floor.serial_s"] = median(serial)
    m["floor.runtime_tax"] = steps[0].first_s / median(grid1) if grid1 else 0.0
    got = bench.attempt(first, pr=3, pc=3)
    st9 = got[0][2] if got is not None else None
    m["grid9.comm_messages"] = st9.comm_messages if st9 else 0
    m["grid9.frames"] = st9.frames if st9 else 0
    m["grid9.total_words"] = st9.total_words if st9 else 0
    m["grid9.supersteps"] = (st9.iterations + st9.auction_rounds) if st9 else 0

    m["graphs.gen_s"] = median([st.gen_s for st in steps])
    m["host.calib_s"] = median([st.calib_second for st in steps])
    m["trace.overhead"] = (
        median([st.second_s for st in steps]) / median([st.first_s for st in steps])
    )
    return m, {"inputs": len(steps)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"wallbench: {SRC}/repro not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"wallbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".wallbench-tmp")
    os.makedirs(workdir, exist_ok=True)
    wl.workdir = workdir
    bench = Bench(wl, args.seed)
    try:
        if args.trace:
            metrics, info = per_layer(bench, args.seconds)
            units = PER_LAYER
        else:
            metrics, info = end_to_end(bench, args.seconds)
            units = END_TO_END
    except Exception:  # noqa: BLE001 - report the cause, print no result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        stop_resource_tracker()
    info["environment"] = environment(wl)
    info["errors"] = bench.errors
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker the process backend
    started, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)  # noqa: SLF001
    if stop is not None:  # no public stop; private since Python 3.8
        stop()


if __name__ == "__main__":
    sys.exit(main())
