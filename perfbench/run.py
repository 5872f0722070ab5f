"""The repo's benchmark: migration-dominated host-time workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload migrate_storm --seed 1 \\
        --seconds 40 --trace 0

Runs episodes of one workload (see ``perfbench/workloads.py``) for
about ``--seconds`` seconds, and at least enough of them for 100
migration samples, then prints every metric by name with its unit.
The migration percentiles are taken over the samples: every rsh
``migrate`` (Figure 4's command), not the ``migrate -d`` calls, and on
``cpu_storm`` every hog's dump and restart (whose host time there is
storm-elapsed time, see ``perfbench/workloads.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Two kinds of time are measured.  *Host* time is how long the
simulator takes to run; *virtual* time is what the modelled 1987
machines would take.  A speed-only change must leave every virtual
number identical; each run prints a virtual fingerprint line for that
comparison.

The host's own speed swings by up to 2x within seconds when it shares
its machine.  So a fixed pure-Python loop (:func:`reference`) is timed
before each episode, and the episode's host times are scaled by the
loop's nominal time over its time just then: the end-to-end host
metrics read as host seconds at the nominal speed.  A change to the
simulator's speed moves them fully; a change that slows the host for
everything in the process (a thread left running) moves the loop too
and is partly hidden.  Each run prints the speed factors and the
unscaled ``run_s``.  The per-layer metrics are not scaled.

* ``--trace 0`` reports the end-to-end metrics, measured with tracing
  off.
* ``--trace 1`` alternates untraced and traced episodes.  The traced
  ones wrap each layer's entry points from outside
  (``perfbench/layers.py``) and give the per-layer metrics, the share
  of the timed phase the layers cover and the tracing overhead.  The
  traced and untraced fingerprints must be identical.
* ``--check-engines`` runs the smallest size of the workload on the
  ``fast`` and the reference ``scan`` engine and requires identical
  fingerprints.
* ``--held-out`` runs the default seed and a held-out seed, each in
  processes of its own, and compares them against the bounds in
  ``BENCHMARK.json``, to show that a workload is not tuned to one
  placement.

Exits 2 without a result when the simulator's sources (``src/``) are
not beside this directory.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SEED = 1
#: a seed no workload was tuned on
HELD_OUT_SEED = 7919
#: processes per seed in ``--held-out``, alternated between the seeds
HELD_OUT_ROUNDS = 3
#: enough samples that the p90 has at least ten beyond it
MIN_MIGRATIONS = 100
MIN_EPISODES = 3

#: iterations of :func:`reference`
REFERENCE_ITERATIONS = 100_000
#: host seconds :func:`reference` takes at the nominal speed: about
#: its fastest under CPython 3.11 on a 2-vCPU Intel Xeon VM
REFERENCE_S = 0.05

#: end-to-end metric -> unit, in output order
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "migrations_per_s": "1/s",
    "mig_host_ms_p50": "ms",
    "mig_host_ms_p90": "ms",
    "guest_mips": "Minstr/s",
    "virtual_makespan_s": "s",
    "mig_virtual_ms_p50": "ms",
    "mig_virtual_ms_p90": "ms",
    "success_ratio": "fraction",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit: every layer's self time and calls, then
#: counters read from the cluster and the trace's own figures
PER_LAYER = {}
for _layer in layers.LAYERS:
    PER_LAYER[_layer + ".self_s"] = "s"
    PER_LAYER[_layer + ".calls"] = "count"
PER_LAYER.update({
    "machine.cluster.steps": "count",
    "machine.cluster.bursts": "count",
    "machine.cluster.horizon_memo_hits": "count",
    "vm.cpu.instructions": "count",
    "vm.cpu.ns_per_instr": "ns",
    "vm.predecode.blocks_compiled": "count",
    "vm.predecode.code_cache_hit_ratio": "fraction",
    "programs.retries": "count",
    "programs.timeouts": "count",
    "net.network.messages": "count",
    "net.network.bytes": "bytes",
    "net.network.drops": "count",
    "store.chunkstore.bytes_written": "bytes",
    "store.chunkstore.bytes_fetched": "bytes",
    "store.chunkstore.dedup_ratio": "fraction",
    "store.chunkstore.lazy_faults": "count",
    "trace.run_coverage": "fraction",
    "trace.setup_coverage": "fraction",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
})


def percentile(values, q):
    """The ``q``-th percentile (1-99) of ``values``, interpolated."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(part, whole):
    return part / whole if whole else 0.0


def make_workload(name, seed, size="full"):
    # imported late: the workloads import the simulator from src/
    from workloads import WORKLOADS
    return WORKLOADS[name](seed, size)


def episode(workload, engine="fast", trace=None):
    """One episode on a collected heap; returns (episode, site)."""
    from workloads import run_episode
    gc.collect()
    return run_episode(workload, engine=engine, trace=trace)


class _Cell:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, next_):
        self.key, self.value, self.next = key, value, next_

    def bump(self, by):
        self.value = (self.value + by) & 0xFFFF
        return self.value


def reference():
    """Host seconds of a fixed pure-Python loop, on a collected heap.

    The loop uses none of the simulator's code, only what it spends
    its time on: objects and their attributes, method calls, dicts,
    lists, bytes and small integers.  Its time tracks the speed of the
    host at that moment.
    """
    gc.collect()
    start = time.perf_counter()
    table, stack, head = {}, [], None
    data = bytes(range(256)) * 4
    for i in range(REFERENCE_ITERATIONS):
        head = _Cell(i & 511, i, head if i & 63 else None)
        table[head.key] = head
        other = table.get((i * 7) & 511)
        if other is not None:
            stack.append(other.bump(data[i & 1023]))
        if len(stack) > 32:
            del stack[:16]
    return time.perf_counter() - start


def fill(seconds, step, enough):
    """Call ``step()`` until ``enough()`` holds and about ``seconds``
    have passed; no call starts that the last one's length says would
    end past ``seconds``."""
    start = time.perf_counter()
    last = 0.0
    while time.perf_counter() - start + last < seconds or not enough():
        began = time.perf_counter()
        step()
        last = time.perf_counter() - began


def migration_samples(run):
    """The (host s, virtual us) migration samples of episode ``run``."""
    return [(host, virtual) for host, virtual, daemon in run.migrations
            if not daemon]


def measure(workload, seconds):
    """Untraced episodes of ``workload`` for about ``seconds``, each
    with the host's speed measured by :func:`reference` just before
    it."""
    episodes = []

    def step():
        speed = REFERENCE_S / reference()
        episodes.append(episode(workload)[0])
        episodes[-1].speed = speed

    fill(seconds, step,
         lambda: len(episodes) >= MIN_EPISODES
         and sum(len(migration_samples(e)) for e in episodes)
         >= MIN_MIGRATIONS)
    return episodes


def failures_of(episodes):
    """Failed operations, plus episodes whose virtual fingerprint
    differs from the first (one seed must replay identically)."""
    failures = [f for e in episodes for f in e.failures]
    first = episodes[0].fingerprint
    for index, later in enumerate(episodes[1:], 1):
        if later.fingerprint != first:
            failures.append("episode %d diverged in virtual time" % index)
    return failures


def end_to_end(episodes):
    """The end-to-end metrics of a list of untraced episodes, and the
    number of samples behind the host migration percentiles.

    Host times are scaled to the nominal host speed by each episode's
    ``speed``.
    """
    host_ms = [host * e.speed * 1e3 for e in episodes
               for host, __ in migration_samples(e)]
    fingerprint = episodes[0].fingerprint
    virtual_ms = [us / 1e3 for __, us in migration_samples(episodes[0])]
    attempted = sum(e.attempted for e in episodes)
    failed = sum(len(e.failures) for e in episodes)
    values = {
        "setup_s": statistics.median(e.setup_s * e.speed
                                     for e in episodes),
        "run_s": statistics.median(e.run_s * e.speed for e in episodes),
        "migrations_per_s": statistics.median(
            len(e.migrations) / (e.run_s * e.speed) for e in episodes),
        "mig_host_ms_p50": statistics.median(host_ms),
        "mig_host_ms_p90": percentile(host_ms, 90),
        "guest_mips": statistics.median(
            e.instructions / (e.run_s * e.speed) / 1e6 for e in episodes),
        "virtual_makespan_s": fingerprint["virtual_makespan_us"] / 1e6,
        "mig_virtual_ms_p50": statistics.median(virtual_ms),
        "mig_virtual_ms_p90": percentile(virtual_ms, 90),
        "success_ratio": 1.0 - ratio(failed, attempted),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, len(host_ms)


def layer_sample(run, cluster, trace):
    """Every per-layer metric of one traced episode ``run``."""
    perf, network = cluster.perf, cluster.network
    values = {}
    for layer in layers.LAYERS:
        values[layer + ".self_s"] = trace.layer_self_s(layer)
        values[layer + ".calls"] = trace.calls[layer]
    chunk_attempts = (perf.chunk_puts + perf.chunk_dedup_hits
                      + perf.chunks_clean_skipped)
    values.update({
        "machine.cluster.steps": perf.steps,
        "machine.cluster.bursts": perf.bursts,
        "machine.cluster.horizon_memo_hits": perf.horizon_memo_hits,
        "vm.cpu.instructions": perf.vm_instructions,
        "vm.cpu.ns_per_instr": ratio(trace.layer_self_s("vm.cpu") * 1e9,
                                     perf.vm_instructions),
        "vm.predecode.blocks_compiled": perf.blocks_compiled,
        "vm.predecode.code_cache_hit_ratio": ratio(
            perf.shared_cache_hits,
            perf.shared_cache_hits + perf.cache_rebuilds),
        "programs.retries": perf.retries,
        "programs.timeouts": perf.timeouts,
        "net.network.messages": network.messages_sent,
        "net.network.bytes": network.bytes_moved,
        "net.network.drops": perf.net_drops,
        "store.chunkstore.bytes_written": perf.chunk_bytes_written,
        "store.chunkstore.bytes_fetched": perf.chunk_bytes_fetched,
        "store.chunkstore.dedup_ratio": ratio(
            perf.chunk_dedup_hits + perf.chunks_clean_skipped,
            chunk_attempts),
        "store.chunkstore.lazy_faults": perf.lazy_faults,
        "trace.run_coverage": ratio(trace.covered_s("run"), run.run_s),
        "trace.setup_coverage": ratio(trace.covered_s("setup"),
                                      run.setup_s),
        "trace.run_s": run.run_s,
    })
    return values


def layer_metrics(workload, seconds):
    """Alternate untraced and traced episodes for about ``seconds``.

    Returns the per-layer metrics (medians over the traced episodes),
    every episode run, and the failures.
    """
    plain, traced, samples = [], [], []

    def pair():
        plain.append(episode(workload)[0])
        trace = layers.install()
        try:
            run, site = episode(workload, trace=trace)
        finally:
            trace.remove()
        traced.append(run)
        samples.append(layer_sample(run, site.cluster, trace))

    fill(seconds, pair, lambda: len(traced) >= 2)
    values = {name: statistics.median(s[name] for s in samples)
              for name in samples[0]}
    values["trace.overhead_s"] = values["trace.run_s"] \
        - statistics.median(e.run_s for e in plain)
    episodes = plain + traced
    return values, episodes, failures_of(episodes)


def print_layer_table(values):
    table = sorted(layers.LAYERS,
                   key=lambda layer: -values[layer + ".self_s"])
    total = sum(values[layer + ".self_s"] for layer in table)
    print("%-18s %10s %7s %12s" % ("layer", "self s", "share", "calls"))
    for layer in table:
        self_s = values[layer + ".self_s"]
        print("%-18s %10.4f %6.1f%% %12d"
              % (layer, self_s, 100 * ratio(self_s, total),
                 values[layer + ".calls"]))
    print("layers cover %.1f%% of the traced run_s (%.3f s); tracing "
          "overhead %+.3f s"
          % (100 * values["trace.run_coverage"], values["trace.run_s"],
             values["trace.overhead_s"]))


def check_spec(units, key):
    """Require the metrics a run emits to be the ones
    ``BENCHMARK.json`` declares under ``key``, with the same units."""
    if not os.path.exists(SPEC):
        return
    with open(SPEC) as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)[key]}
    if declared != units:
        raise SystemExit("perfbench: the %s metrics differ from "
                         "BENCHMARK.json's" % key)


def report(episodes, failures, values, units):
    """Print the failures, the fingerprint, each metric with its unit,
    then the result line; returns the exit status."""
    for failure in failures:
        print("FAILED: %s" % failure)
    print("fingerprint %s" % json.dumps(episodes[0].fingerprint))
    for name, unit in units.items():
        print("%-36s %16.6f %s" % (name, values[name], unit))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(e.attempted for e in episodes),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not failures else 1


def run_end_to_end(args):
    check_spec(END_TO_END, "end_to_end")
    episodes = measure(make_workload(args.workload, args.seed),
                       args.seconds)
    values, samples = end_to_end(episodes)
    print("%s seed %d: %d episodes, %d migration samples"
          % (args.workload, args.seed, len(episodes), samples))
    print("host speed %.3f of nominal (median; min %.3f, max %.3f); "
          "raw run_s %.6f s"
          % (statistics.median(e.speed for e in episodes),
             min(e.speed for e in episodes),
             max(e.speed for e in episodes),
             statistics.median(e.run_s for e in episodes)))
    return report(episodes, failures_of(episodes), values, END_TO_END)


def run_traced(args):
    check_spec(PER_LAYER, "per_layer")
    values, episodes, failures = layer_metrics(
        make_workload(args.workload, args.seed), args.seconds)
    print_layer_table(values)
    return report(episodes, failures, values, PER_LAYER)


def run_engine_check(args):
    """Smallest size of the workload on both engines."""
    runs = [episode(make_workload(args.workload, args.seed, "small"),
                    engine=engine)[0] for engine in ("fast", "scan")]
    failures = failures_of(runs)
    same = runs[0].fingerprint == runs[1].fingerprint
    print("%s: virtual fingerprints %s across engines"
          % (args.workload, "agree" if same else "DIFFER"))
    return report(runs, failures, {}, {})


def run_held_out(args):
    """Default and held-out seed side by side, against the bounds.

    Each seed runs in processes of its own, so that ``peak_rss_mb`` is
    the seed's own.  The processes alternate between the seeds, so a
    drift in the host's speed reaches both alike and only the seeds'
    own differences show; each seed's figure is the median over its
    processes.
    """
    with open(SPEC) as handle:
        bounds = {m["name"]: m["bound"]
                  for m in json.load(handle)["end_to_end"]}
    seeds = (DEFAULT_SEED, HELD_OUT_SEED)
    seconds = args.seconds / (len(seeds) * HELD_OUT_ROUNDS)
    values = {seed: {name: [] for name in END_TO_END} for seed in seeds}
    failures = []
    attempted = 0
    for __ in range(HELD_OUT_ROUNDS):
        for seed in seeds:
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", args.workload, "--seed", str(seed),
                 "--seconds", repr(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, universal_newlines=True)
            lines = child.stdout.splitlines()
            if child.returncode != 0 or not lines:
                failures.append("seed %d: exit status %d"
                                % (seed, child.returncode))
                continue
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            if not result["correct"]:
                failures.append("seed %d: %d failed operations"
                                % (seed, result["failed"]))
            for name in END_TO_END:
                values[seed][name].append(
                    result["metrics"][name]["value"])
    if failures:
        return report_held_out(failures, attempted)
    base, held = [{name: statistics.median(values[seed][name])
                   for name in END_TO_END} for seed in seeds]
    print("%-22s %14s %14s %8s %6s"
          % ("metric", "seed %d" % seeds[0], "seed %d" % seeds[1], "gap",
             "bound"))
    for name in END_TO_END:
        gap = abs(held[name] - base[name]) / base[name]
        over = gap > bounds[name]
        print("%-22s %14.4f %14.4f %7.1f%% %5.0f%%%s"
              % (name, base[name], held[name], 100 * gap,
                 100 * bounds[name], "  OVER" if over else ""))
        if over:
            failures.append("%s: held-out seed is %.1f%% off the default"
                            % (name, 100 * gap))
    return report_held_out(failures, attempted)


def report_held_out(failures, attempted):
    for failure in failures:
        print("FAILED: %s" % failure)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": {}}))
    return 0 if not failures else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cpu_storm", "migrate_storm",
                                 "lazy_storm"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-engines", action="store_true",
                        help="compare the fast and scan engines on the "
                             "workload's smallest size")
    parser.add_argument("--held-out", action="store_true",
                        help="compare the default seed with the "
                             "held-out seed %d" % HELD_OUT_SEED)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no simulator sources at %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    layers.import_all()
    if args.check_engines:
        return run_engine_check(args)
    if args.held_out:
        return run_held_out(args)
    if args.trace:
        return run_traced(args)
    return run_end_to_end(args)


if __name__ == "__main__":
    sys.exit(main())
