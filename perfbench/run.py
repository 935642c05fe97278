"""The replicated store's benchmark: three workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload store-100k --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced;
``--trace 1`` prints the per-layer metrics from a run whose first
blocks are traced (see ``spans.py``) and writes its spans as JSONL
under ``.perfbench_work/``.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run whose outputs fail a
check reports ``correct: false`` and no metric values.

The workloads, what each measures and why, are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: Counters that must repeat exactly across processes for one seed.
DETERMINISTIC = ("messages", "wire_bytes", "probes", "repairs", "sync.fingerprint_calls")
CHILD_TIMEOUT_S = 60


#: Samples per chunk for tail percentiles: a p99 needs ten samples
#: beyond it.
TAIL_CHUNK = 1000


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (1..99) of ``values``, exclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def tail_p99(values: Sequence[float]) -> float:
    """Median over consecutive 1,000-sample chunks of each chunk's p99.

    A pooled p99 is set by the slowest 1% of the window, i.e. by whatever
    else the host ran during its worst second; the per-chunk p99 is the
    tail a client sees over 1,000 requests, and its median is the
    typical one.
    """
    chunks = [values[i:i + TAIL_CHUNK] for i in range(0, len(values), TAIL_CHUNK)]
    full = [chunk for chunk in chunks if len(chunk) == TAIL_CHUNK] or [values]
    return statistics.median(percentile(chunk, 99) for chunk in full)


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a fresh process that only sets up and runs the prefix.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_probe(workload) -> dict:
    """Set up, then run the prefix traced (its counts are compared)."""
    from spans import SpanRecorder

    workload.timed_setup()
    probe = {"setup_s": workload.setup_s * workload.speed.scale(*workload.setup_span),
             "raw_setup_s": workload.setup_s, "counts": {}}
    if workload.deterministic:
        recorder = SpanRecorder()
        workload.window(0, recorder, min_blocks=workload.prefix_blocks)
        probe["counts"] = {
            **workload.prefix,
            "sync.fingerprint_calls": recorder.calls["sync.fingerprint"],
        }
    return probe


def spawn_probes(args, count: int) -> List[dict]:
    """Set-up probes in fresh child processes, one after the other."""
    probes = []
    for _ in range(count):
        child = subprocess.Popen(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", "0",
                "--setup-probe",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # SIGTERM lets the child close its cluster (and its replica
            # processes) before it exits.
            child.terminate()
            child.communicate()
            raise
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{stderr}")
        probes.append(json.loads(stdout.strip().splitlines()[-1]))
    return probes


def determinism_failures(name: str, runs: List[Dict[str, float]]) -> List[str]:
    """Counters that differ between runs of one seed."""
    failures = []
    for key in DETERMINISTIC:
        seen = {run[key] for run in runs if key in run}
        if len(seen) > 1:
            failures.append(f"{name}: {key} differs between runs of one seed: {sorted(seen)}")
    return failures


def end_to_end(args, workload, probes: List[dict]) -> Dict[str, dict]:
    import host

    steal_before = host.cpu_times()
    workload.window(args.seconds)
    steal = host.steal_share(steal_before, host.cpu_times())
    reads = workload.finish()
    workload.attempted = workload.window_ops + reads
    if workload.deterministic:  # prefix counters: this run vs the probes
        runs = [workload.prefix] + [p["counts"] for p in probes]
        workload.failures += determinism_failures(workload.name, runs)

    # Each timing is measured, then scaled to the reference host speed
    # by the speed samples taken around it (host.SpeedProbe).
    speed = workload.speed
    at_reference = speed.at_reference
    rates = [rate / speed.scale(start, end) for start, end, rate in workload.block_rates]
    puts, gets = at_reference(workload.put_ms), at_reference(workload.get_ms)
    setup_scale = speed.scale(*workload.setup_span)
    setups = [(workload.setup_s, workload.setup_s * setup_scale)] + [
        (p["raw_setup_s"], p["setup_s"]) for p in probes
    ]
    peak_rss = workload.peak_rss_mb()
    raw_puts = [ms for _, ms in workload.put_ms]
    raw_gets = [ms for _, ms in workload.get_ms]
    measured = {  # name: (as measured, at reference speed, unit)
        "ops_per_s": (statistics.median(r for _, _, r in workload.block_rates),
                      statistics.median(rates), "ops/s"),
        "bytes_per_op": (workload.bytes_per_op(), workload.bytes_per_op(), "B/op"),
        # A mean: one fault cycle's drain takes 6 or 9 rounds, and a
        # median would jump between the two with the seed.
        "converge_s": (statistics.fmean(s for _, s in workload.converge_s),
                       statistics.fmean(at_reference(workload.converge_s)), "s"),
        "get_p50_ms": (percentile(raw_gets, 50), percentile(gets, 50), "ms"),
        "get_p99_ms": (tail_p99(raw_gets), tail_p99(gets), "ms"),
        "put_p50_ms": (percentile(raw_puts, 50), percentile(puts, 50), "ms"),
        "put_p99_ms": (tail_p99(raw_puts), tail_p99(puts), "ms"),
        "peak_rss_mb": (peak_rss, peak_rss, "MiB"),
        "setup_s": (statistics.median(raw for raw, _ in setups),
                    statistics.median(scaled for _, scaled in setups), "s"),
    }
    window_reference = speed.reference_s(*workload.window_span)

    print(f"window: {workload.blocks} blocks, {workload.window_ops} ops in "
          f"{workload.window_s:.3f} s ({workload.window_ops / workload.window_s:.1f} ops/s overall)")
    print(f"samples: {len(gets)} gets, {len(puts)} puts, {len(workload.converge_s)} "
          f"convergences, {len(setups)} set-ups")
    if workload.warmup_ops:
        print(f"warm-up (in setup_s): {workload.warmup_ops} ops in {workload.warmup_s:.3f} s "
              f"= {workload.warmup_ops / workload.warmup_s:.1f} ops/s; {workload.warmup_note}")
    print(f"prefix counts ({workload.prefix_blocks} blocks): "
          f"{json.dumps(workload.prefix, sort_keys=True)}")
    print(f"host: nproc {host.nproc()}, cpu steal {steal:.2%} over the window; the "
          f"reference took {window_reference * 1e3:.3f} ms (median) in the window and "
          f"{host.REFERENCE_S / setup_scale * 1e3:.3f} ms in set-up, "
          f"{host.REFERENCE_S * 1e3:.3f} ms at reference speed")
    print(f"  {'metric':<14} {'as measured':>14} {'at ref speed':>14}")
    for name, (raw, value, unit) in measured.items():
        print(f"  {name:<14} {raw:>14.4f} {value:>14.4f} {unit}")
    return {name: {"value": value, "unit": unit} for name, (_, value, unit) in measured.items()}


def per_layer(args, workload) -> Dict[str, dict]:
    import host
    from spans import SpanRecorder

    recorder = SpanRecorder()
    pids = workload.replica_pids()
    cpu_before = sum(host.cpu_seconds(pid) for pid in pids)
    steal_before = host.cpu_times()
    workload.window(args.seconds, recorder)
    steal = host.steal_share(steal_before, host.cpu_times())
    replica_cpu = sum(host.cpu_seconds(pid) for pid in pids) - cpu_before
    replica_rss = sum(host.rss_mib(pid) for pid in pids)
    reads = workload.finish()
    workload.attempted = workload.window_ops + reads

    traced_block = workload.prefix_s / workload.prefix_blocks
    untraced_block = workload.rest_s / (workload.blocks - workload.prefix_blocks)
    prefix = workload.prefix
    self_s, calls = recorder.self_s, recorder.calls
    client = getattr(workload, "client", None)
    client_stats = client.stats if client is not None else {}
    probes = prefix.get("probes", 0)
    metrics: Dict[str, tuple] = {}

    def spans(name: str, with_calls: bool = False) -> None:
        metrics[f"{name}_s"] = (self_s[name], "s")
        if with_calls:
            metrics[f"{name}_calls"] = (calls[name], "count")

    spans("net.tick", True)
    spans("net.deliver", True)
    spans("net.local_update")
    spans("net.sample_memory")
    spans("net.events")
    spans("net.io")
    metrics["net.messages"] = (prefix.get("messages", 0), "count")
    metrics["net.messages_blocked"] = (prefix.get("blocked", 0), "count")
    spans("kv.repair")
    spans("kv.plan")
    spans("kv.converged")
    spans("kv.value")
    metrics["kv.probes"] = (probes, "count")
    metrics["kv.repairs"] = (prefix.get("repairs", 0), "count")
    metrics["kv.deferred"] = (prefix.get("deferred", 0), "count")
    metrics["kv.repair_bytes"] = (prefix.get("repair_bytes", 0), "B")
    metrics["kv.repair_yield"] = (prefix.get("repairs", 0) / probes if probes else 0.0, "ratio")
    metrics["kv.warmup_s"] = (workload.warmup_s, "s")
    metrics["sync.fingerprint_calls"] = (calls["sync.fingerprint"], "count")
    spans("sync.fingerprint")
    spans("sync.diff")
    spans("sync.root")
    spans("sync.digest")
    metrics["sync.payload_bytes"] = (prefix.get("payload_bytes", 0), "B")
    metrics["sync.metadata_bytes"] = (prefix.get("metadata_bytes", 0), "B")
    metrics["sync.avg_mem_bytes"] = (workload.average_memory_bytes(), "B")
    spans("sizes.account")
    spans("codec.encode", True)
    spans("codec.frame", True)
    spans("codec.decode")
    spans("wal.append")
    metrics["wal.records"] = (prefix.get("wal_records", 0), "count")
    spans("wal.commit")
    metrics["wal.commits"] = (prefix.get("wal_commits", 0), "count")
    spans("wal.replay")
    metrics["wal.replayed_bytes"] = (prefix.get("wal_replayed_bytes", 0), "B")
    spans("serve.client")
    spans("serve.frames")
    spans("serve.send")
    spans("serve.wait")
    metrics["serve.settle_s"] = (recorder.total_s["serve.settle"], "s")
    spans("serve.drain")
    spans("serve.converged")
    metrics["serve.replica_cpu_s"] = (replica_cpu, "s")
    metrics["serve.replica_rss_mb"] = (replica_rss, "MiB")
    metrics["serve.retries"] = (client_stats.get("retries", 0), "count")
    metrics["serve.unavailable"] = (client_stats.get("unavailable", 0), "count")
    metrics["serve.read_repairs"] = (client_stats.get("read_repairs", 0), "count")
    metrics["trace.attributed_share"] = (recorder.top_level_s / workload.prefix_s, "ratio")
    metrics["trace.overhead"] = (traced_block / untraced_block, "ratio")
    metrics["trace.spans"] = (len(recorder.spans) + recorder.dropped, "count")
    metrics["host.steal_share"] = (steal, "ratio")
    metrics["host.nproc"] = (host.nproc(), "count")
    metrics["host.reference_ms"] = (
        workload.speed.reference_s(*workload.window_span) * 1e3, "ms")

    print(f"traced prefix: {workload.prefix_blocks} blocks, {workload.prefix_ops} ops "
          f"in {workload.prefix_s:.3f} s; untraced: {workload.blocks - workload.prefix_blocks} "
          f"blocks in {workload.rest_s:.3f} s")
    print(f"per-layer self time over the traced prefix ({workload.name}):")
    print(recorder.table(workload.prefix_s))
    path = os.path.join(WORK, f"spans-{workload.name}-seed{args.seed}.jsonl")
    recorder.write_jsonl(path, {"workload": workload.name, "seed": args.seed,
                                "prefix_blocks": workload.prefix_blocks,
                                "wall_s": workload.prefix_s})
    print(f"spans: {path}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    # Exit through the finally blocks below, which close the clusters.
    signal.signal(signal.SIGTERM, _terminate)
    # One CPU for the run and every process it starts (set-up children,
    # replica processes).  On a shared VM, a closed loop whose client
    # and replica sit on different vCPUs waits for the hypervisor to
    # run both: serve-proc measured 3-27% CPU steal that way and moved
    # its p50 latency by a quarter from run to run; on one vCPU, under
    # 3% and 5%.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = cls(args.seed, args.seconds, workdir)
    if args.setup_probe:  # a failure here fails the parent run
        try:
            print(json.dumps(run_probe(workload)))
        finally:
            workload.close()
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    metrics: Dict[str, dict] = {}
    try:
        if cls.window_fingerprint(args.seed) == cls.window_fingerprint(args.seed + 1):
            workload.failures.append("a different seed did not change the schedule")
        probes = [] if args.trace else spawn_probes(args, cls.setups - 1)
        workload.timed_setup()
        if args.trace:
            metrics = per_layer(args, workload)
        else:
            metrics = end_to_end(args, workload, probes)
    # The boundary: any program error is a failed run, reported as such.
    except Exception:  # repro: lint-ok[broad-except] recorded as a failed check; traceback on stderr
        traceback.print_exc()
        workload.failures.append("the run raised (traceback on stderr)")
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in workload.failures:
        print(f"CHECK FAILED: {failure}")
    print(f"failed client ops: {workload.failed_ops} of {workload.attempted} attempted")
    correct = not workload.failures and not workload.failed_ops
    result = {
        "correct": correct,
        "attempted": max(workload.attempted, 1),
        "failed": workload.failed_ops + len(workload.failures),
        "metrics": metrics if correct else {},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
