"""mirropt benchmark: one workload per process, single client, closed loop.

    python3 perfbench/run.py --workload ttd_switch --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  BLAS is pinned to one thread before numpy loads, and while
measuring the process rotates over the CPUs it may use.  With
``--trace 0`` the run reports the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
rounds and reports the per-layer metrics.  Human-readable lines (the
environment, each config's trace hash, every metric with its unit) come
first; the last line of standard output is the JSON result.  A record of
the run, and in traced runs the recorded spans, go to ``.perfbench_out/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import itertools
import json
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def _parse():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _openblas():
    """(configuration string, thread count) of numpy's bundled OpenBLAS."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_config().decode(), int(get_threads())
    return "unknown", None


def _caches():
    """L2 and L3 sizes as lscpu prints them (read-only)."""
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True,
                              timeout=10, check=False).stdout
    except (OSError, subprocess.TimeoutExpired):
        text = ""
    found = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            found[key.strip().split()[0]] = value.strip()
    return found.get("L2", "unknown"), found.get("L3", "unknown")


def environment():
    import platform
    import scipy
    blas_config, blas_threads = _openblas()
    l2, l3 = _caches()
    return {
        "blas": blas_config,
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "l2_cache": l2,
        "l3_cache": l3,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

HOP_SECONDS = 2.0
# Set-up is sampled in batches spread over the run, so that like the rounds
# it averages over the machine's speed states: a batch of set-ups taking at
# least SETUP_BATCH_S after a round, every run_seconds / SETUP_POINTS, and at
# least SETUP_MIN set-ups in all.
SETUP_POINTS, SETUP_BATCH_S, SETUP_MIN = 8, 0.25, 3


@contextlib.contextmanager
def cpu_rotation():
    """Move this process to the next CPU it may run on every HOP_SECONDS.

    The CPUs of a shared machine change speed, not always together (by up
    to 1.7x on the 2-vCPU box this was written on, for seconds to minutes),
    so a run that stays on one CPU reports that CPU's state.  Rotating
    makes a run average over all of them.  A move leaves the caches cold,
    so moves are seconds apart."""
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        yield
        return
    cpus = itertools.cycle(sorted(allowed))

    def hop(signum, frame):
        with contextlib.suppress(OSError):    # a CPU went offline: stay put
            os.sched_setaffinity(0, {next(cpus)})

    previous = signal.signal(signal.SIGALRM, hop)
    signal.setitimer(signal.ITIMER_REAL, HOP_SECONDS, HOP_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        os.sched_setaffinity(0, allowed)


def measure(args, workload):
    """Closed loop of rounds until ``args.seconds`` have passed, with
    batches of set-ups between them.  Returns the set-up ns by batch, the
    untraced round ns, (run id, ns) of traced rounds, and the span
    recorder."""
    exp_dir = OUT / f"experiments-{args.workload}-{os.getpid()}"
    exp_dir.mkdir(parents=True, exist_ok=True)
    rec = SpanRecorder() if args.trace else None
    setup_ns, plain, traced = [], [], []
    probes = 0

    def setups():
        end = time.perf_counter_ns() + SETUP_BATCH_S * 1e9
        batch = []
        setup_ns.append(batch)
        while True:
            workload.release()
            gc.collect()
            with rec.recording(-1) if rec else contextlib.nullcontext():
                t0 = time.perf_counter_ns()
                workload.setup_once()
                batch.append(time.perf_counter_ns() - t0)
            if time.perf_counter_ns() >= end:
                return

    try:
        if rec is not None:
            rec.calibrate()
        workload.setup_once()                        # warm-up, not reported
        gc.collect()
        workload.round(exp_dir)                      # warm-up, not reported
        start = time.monotonic()
        deadline, next_setups = start + args.seconds, start
        for i in itertools.count():
            gc.collect()
            if rec is not None and i % 2 == 1:
                with rec.recording(i):
                    traced.append((i, workload.round(exp_dir, rec)))
            elif workload.probe_is_free:
                plain.append(workload.round(exp_dir, probe=True))
            elif rec is None and i % 2 == 1:
                workload.round(exp_dir, probe=True)
                probes += 1
            else:
                plain.append(workload.round(exp_dir))
            now = time.monotonic()
            if now >= next_setups or (now >= deadline
                                      and sum(map(len, setup_ns)) < SETUP_MIN):
                setups()
                next_setups = time.monotonic() + args.seconds / SETUP_POINTS
            if (now >= deadline and plain
                    and sum(map(len, setup_ns)) >= SETUP_MIN
                    and (traced if rec is not None
                         else probes or workload.probe_is_free)):
                break
        workload.finish()
    finally:
        shutil.rmtree(exp_dir, ignore_errors=True)
    return setup_ns, plain, traced, rec


def chunk_percentile_us(chunks, q):
    """Mean over chunks of consecutive calls of each chunk's q-th
    percentile, in us.  The machine's speed swings between states within a run; averaging
    over chunks makes the figure move with the share of the run spent slow
    instead of flipping between the states, as a median over chunks does."""
    return float(np.mean([np.percentile(c, q) for c in chunks])) / 1e3


def end_to_end(workload, setup_ns, plain):
    """``setup_s`` is the mean over batches of each batch's median, which
    like the latency percentiles moves with the share of the run spent
    slow."""
    writes, reads = workload.latencies()
    return {
        "setup_s": float(np.mean([np.median(b) for b in setup_ns])) / 1e9,
        "experiment_s": float(np.median(plain)) / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "update_us_p50": chunk_percentile_us(writes, 50),
        "update_us_p99": chunk_percentile_us(writes, 99),
        "query_us_p50": chunk_percentile_us(reads, 50),
        "query_us_p99": chunk_percentile_us(reads, 99),
    }


def per_layer(workload, plain, traced, rec):
    runs = [i for i, _ in traced]
    rounds = len(runs)
    table = rec.layer_table(runs)
    out = {}
    for name, row in table.items():
        out[f"{name}.self_s"] = row["self_ns"] / rounds / 1e9
        out[f"{name}.calls"] = row["calls"] / rounds

    def counter(key):
        return sum(v for (run, k), v in rec.counters.items()
                   if k == key and run in runs)

    def ratio(num, den):
        d = counter(den)
        return counter(num) / d if d else 0.0

    root = "bench.run_experiment" if "bench.run_experiment" in table \
        else "stream.segment"
    root_dur = float(table[root]["dur_ns"].sum())
    out["root.self_frac"] = table[root]["self_ns"] / root_dur
    out["trace_overhead_frac"] = (float(np.median([ns for _, ns in traced]))
                                  / float(np.median(plain)) - 1.0)
    out["constrained.productive_frac"] = ratio("constrained.productive",
                                               "constrained.iterations")
    out["smoothing.trials_per_iter"] = ratio("smoothing.trials",
                                             "smoothing.trial_iters")
    out["mirrorprox.trials_per_iter"] = ratio("mirrorprox.trials",
                                              "mirrorprox.trial_iters")
    out["bench.bytes_written"] = counter("bench.bytes_written") / rounds
    iters = workload.iterations_per_round()
    out["solver.iterations"] = float(iters)
    moved = sum(table[name]["calls"] * nbytes
                for name, nbytes in rec.bytes_per_call.items()
                if name in table)
    out["computed_bytes_per_iter"] = moved / rounds / iters

    updates = table.get("maxstruct.update", {}).get("calls", 0)
    if updates:
        writes, _ = workload.latencies()
        csr_us = workload.csr_recompute_ns() / 1e3
        out["maxstruct.touched_per_update"] = counter("maxstruct.touched") / updates
        out["maxstruct.affected_rows_per_update"] = \
            counter("maxstruct.affected_rows") / updates
        out["maxstruct.csr_recompute_us"] = csr_us
        out["maxstruct.speedup_vs_csr"] = \
            csr_us / chunk_percentile_us(writes, 50)
    builds = rec.layer_table([-1]).get("maxstruct.build")
    if builds is not None:
        out["maxstruct.build_s"] = float(np.median(builds["dur_ns"])) / 1e9
    return out


def main():
    args = _parse()
    if not (ROOT / "src" / "mirropt").is_dir():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Outcomes

    env = environment()
    for key, value in env.items():
        print(f"env {key} = {value}")
    outcomes = Outcomes()
    workload = WORKLOADS[args.workload]()
    workload.prepare(args.seed, outcomes)
    with cpu_rotation():
        setup_ns, plain, traced, rec = measure(args, workload)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        measured = per_layer(workload, plain, traced, rec)
        rec.save(OUT / f"spans-{args.workload}.npz")
        if rec.missing:
            print("warning: patch points not found: " + ", ".join(rec.missing),
                  file=sys.stderr)
    else:
        measured = end_to_end(workload, setup_ns, plain)
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}

    for name, digest in sorted(workload.hashes.items()):
        print(f"hash {name} = {digest} (blas_threads={env['blas_threads']})")
    print(f"rounds = {len(plain)} untraced, {len(traced)} traced "
          f"({workload.kind_of_round}); "
          f"{sum(map(len, setup_ns))} set-ups in {len(setup_ns)} batches")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    fail_rate = outcomes.failed / max(outcomes.attempted, 1)
    print(f"metric fail_rate = {fail_rate!r} frac "
          f"({outcomes.failed}/{outcomes.attempted})")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "hashes": workload.hashes, "rounds": len(plain),
              "traced_rounds": len(traced), "setup_s": [[ns / 1e9 for ns in b] for b in setup_ns],
              "round_s": [ns / 1e9 for ns in plain],
              "traced_round_s": [ns / 1e9 for _, ns in traced],
              "metrics": metrics, "all_measured": measured,
              "fail_rate": fail_rate, "failures": outcomes.notes}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=float) + "\n")
    print(json.dumps({"correct": outcomes.failed == 0,
                      "attempted": outcomes.attempted,
                      "failed": outcomes.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
