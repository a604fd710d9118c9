#!/usr/bin/env python3
"""Scored-scenario benchmark of the slice-overbooking system.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests

Builds the repository's libraries and scenario_bench from source (Release,
under $CARGO_TARGET_DIR or .bench_build), then runs the workload's scenario
through scenario::ScenarioRunner::run or federation::FederatedRunner::run,
one scenario_bench process per repetition, for S seconds. Each run covers a fixed
set of SUBSEEDS scenario seeds derived from --seed, round robin, so its
inputs depend on the seed alone. Every repetition's scorecard digest is
checked (see README.md). Prints each metric by name and unit, then, as the
last line, one JSON object: {"correct", "attempted", "failed", "metrics"}
with the end-to-end metrics (--trace 0) or the per-layer ledger (--trace 1).
"""

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
import time

import aggregate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")

# Scenario seeds per run: seed * SUBSEEDS + j for j < SUBSEEDS. Averaging a
# run over several inputs keeps the seed-to-seed spread of its metrics small.
SUBSEEDS = 8
DEADLINE_S = 60        # one repetition; past it the repetition has failed

# Workload -> transport; its scenario is workloads/<name>.json. A socket
# workload also runs in-process once per run, and the two scorecards must
# match. Its broker and server threads only ever hand work to each other,
# so they share one CPU: cross-CPU wake-up latency on a shared host
# otherwise doubles some runs.
WORKLOADS = {
    "fig2_overbooking_week": "inproc",
    "metro_commuter_100k": "inproc",
    "metro_outage_socket": "socket",
}
RECORDED_SEEDS = range(0, 11)  # --seed values whose digests digests.json holds

END_TO_END = [
    ("sim_hours_per_s", "h/s"),
    ("epoch_wall_p50_us", "us"),
    ("epoch_wall_p99_us", "us"),
    ("admission_wall_p50_us", "us"),
    ("admission_wall_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Ledger rows whose call count is reported too: ledger row -> metric.
LEDGER_CALLS = {
    "core.admission": "core.admission.decisions",
    "ran.wander": "ran.wander.calls",
    "store": "store.calls",
    "net.bus": "net.bus.calls",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (cheap once cached) and build incrementally; returns the
    scenario_bench path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no source tree at " + ROOT + " (src/CMakeLists.txt missing)")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    step(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", out, "-j", jobs, "--target", "scenario_bench"])
    return os.path.join(out, "scenario_bench")


def step(cmd):
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        log(result.stdout)
        raise SystemExit("perfbench: build step failed: " + " ".join(cmd))


# --- one repetition ----------------------------------------------------------

def run_once(binary, workload, scenario_seed, transport, trace_path=None):
    """One scenario_bench process. Returns (result dict or None, failure reason)."""
    pin = None
    if transport == "socket":
        cpu = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
    cmd = [binary, os.path.join(HERE, "workloads", workload + ".json"),
           "--seed", str(scenario_seed), "--transport", transport]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=DEADLINE_S, preexec_fn=pin)
    except subprocess.TimeoutExpired:
        return None, f"seed {scenario_seed}: deadline of {DEADLINE_S} s exceeded"
    if proc.returncode != 0:
        return None, (f"seed {scenario_seed}: exit code {proc.returncode}: "
                      + proc.stderr.strip()[-300:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["targets_met"]:
        return result, f"seed {scenario_seed}: scenario targets missed"
    return result, None


class RunSet:
    """Every repetition of one benchmark run, with its failure ledger."""

    def __init__(self, workload, seed, recorded):
        self.workload = workload
        self.seeds = [(seed * SUBSEEDS + j) % (1 << 63) for j in range(SUBSEEDS)]
        self.results = {s: [] for s in self.seeds}         # untraced
        self.traced = {s: [] for s in self.seeds}
        self.recorded = recorded
        self.first_digest = {}
        self.attempted = 0
        self.failures = []

    def add(self, seed, result, failure, kind="timed"):
        """Record one repetition, checking its scorecard digest; a
        "reference" repetition only contributes the check."""
        self.attempted += 1
        if result is not None and failure is None:
            failure = aggregate.digest_failure(seed, aggregate.digest(result["scorecard"]),
                                               self.recorded, self.first_digest)
        if failure:
            self.failures.append(failure)
        elif kind != "reference":
            (self.traced if kind == "traced" else self.results)[seed].append(result)


def load_recorded(workload):
    if not os.path.isfile(DIGESTS):
        return {}
    with open(DIGESTS) as f:
        return json.load(f).get(workload, {})


def measure(binary, workload, seed, seconds, traced):
    """Repeat the run's scenario seeds round robin: at least one full round,
    then until `seconds` have passed."""
    transport = WORKLOADS[workload]
    runs = RunSet(workload, seed, load_recorded(workload))
    trace_path = os.path.join(build_dir(), f"trace-{workload}.json")
    ledgers = []

    if transport != "inproc":
        result, failure = run_once(binary, workload, runs.seeds[0], "inproc")
        runs.add(runs.seeds[0], result, failure, kind="reference")

    start = time.monotonic()
    for i in itertools.count():
        if i >= len(runs.seeds) and time.monotonic() - start >= seconds:
            break
        s = runs.seeds[i % len(runs.seeds)]
        result, failure = run_once(binary, workload, s, transport)
        runs.add(s, result, failure)
        if traced:
            result, failure = run_once(binary, workload, s, transport, trace_path)
            if result is not None and failure is None:
                failure = add_ledger(trace_path, result, ledgers)
            runs.add(s, result, failure, kind="traced")
            if os.path.exists(trace_path):
                os.remove(trace_path)
    return runs, ledgers


def add_ledger(path, result, ledgers):
    """Aggregate one traced repetition; returns a failure reason or None."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    try:
        book = aggregate.ledger(events)
    except ValueError as e:
        return str(e)
    book["spans_dropped"] = result["trace"]["dropped"]
    book["result"] = result
    ledgers.append(book)
    if book["spans_dropped"]:
        return f"{book['spans_dropped']} spans dropped"
    if book["orphans"]:
        return f"{book['orphans']} spans outside the run's span tree"
    if abs(book["gap_ms"]) > 1e-3 * book["wall_ms"]:
        return f"ledger rows miss the run wall by {book['gap_ms']:.3f} ms"
    return None


# --- metrics -----------------------------------------------------------------

def per_seed_median(runs, key, results=None):
    results = results or runs.results
    return {s: aggregate.median([r[key] for r in rs]) for s, rs in results.items() if rs}


def end_to_end(runs):
    every = [r for rs in runs.results.values() for r in rs]
    if not every:
        return None
    wall = per_seed_median(runs, "run_s")
    hours = {s: rs[0]["sim_hours"] for s, rs in runs.results.items() if rs}
    epoch = aggregate.merge_histograms(r["epoch_us"] for r in every)
    admission = aggregate.merge_histograms(r["admission_us"] for r in every)
    return {
        "sim_hours_per_s": sum(hours.values()) / sum(wall.values()),
        "epoch_wall_p50_us": aggregate.quantile(epoch, 0.50),
        "epoch_wall_p99_us": aggregate.quantile(epoch, 0.99),
        "admission_wall_p50_us": aggregate.quantile(admission, 0.50),
        "admission_wall_p99_us": aggregate.quantile(admission, 0.99),
        "setup_s": aggregate.median([s for r in every for s in r["setup_s"]]),
        "peak_rss_mb": aggregate.median([r["max_rss_mb"] for r in every]),
    }, {"epochs": epoch["count"], "admissions": admission["count"]}


def per_layer(runs, books):
    every = [r for rs in runs.results.values() for r in rs]
    if not books or not every:
        return {}, {}, None
    book = aggregate.mean_ledger(books)
    rows = book["rows"]
    metrics = {}
    units = {}
    for row, (metric, _, _) in aggregate.LAYERS.items():
        metrics[metric], units[metric] = rows[row]["ms"], "ms"
    for row, metric in LEDGER_CALLS.items():
        metrics[metric], units[metric] = rows[row]["calls"], "count"
    metrics["other_ms"], units["other_ms"] = rows[aggregate.OTHER]["ms"], "ms"
    metrics["unattributed_ms"] = rows[aggregate.UNATTRIBUTED]["ms"]
    metrics["run_wall_ms"] = book["wall_ms"]
    units["unattributed_ms"] = units["run_wall_ms"] = "ms"

    traced_results = [b["result"] for b in books]
    counters = {k: aggregate.median([r["counters"].get(k, 0) for r in traced_results])
                for k in ("handover_attempts", "placements", "edge_rejected", "roams",
                          "edge_attempts")}
    bus_calls = sum(r["counters"].get("bus_calls", 0) for r in every)
    bus_rx = sum(r["counters"].get("bus_rx_bytes", 0) for r in every)
    extra = {
        "ran.handover.ns_per_attempt": (
            rows["ran.handover"]["ms"] * 1e6 / counters["handover_attempts"]
            if counters["handover_attempts"] else 0.0, "ns"),
        "net.bus.rx_bytes_per_call": (bus_rx / bus_calls if bus_calls else 0.0, "B"),
        "federation.placements": (counters["placements"], "count"),
        "federation.edge_rejected": (counters["edge_rejected"], "count"),
        "federation.edge_accept_ratio": (
            counters["placements"] / counters["edge_attempts"]
            if counters["edge_attempts"] else 0.0, "ratio"),
        "federation.roams": (counters["roams"], "count"),
        "pool.cpu_per_wall": (aggregate.median([r["cpu_s"] / r["run_s"] for r in every]),
                              "ratio"),
        "trace.overhead_pct": (
            (sum(per_seed_median(runs, "run_s", runs.traced).values())
             / sum(per_seed_median(runs, "run_s").values()) - 1.0) * 100.0, "%"),
        "trace.spans_dropped": (max(b["spans_dropped"] for b in books), "count"),
        "trace.ledger_gap_pct": (book["gap_ms"] / book["wall_ms"] * 100.0, "%"),
    }
    for name, (value, unit) in extra.items():
        metrics[name], units[name] = value, unit
    return metrics, units, book


# --- context -----------------------------------------------------------------

def source_id():
    """The commit when run from a git checkout, else a digest of the
    sources the benchmark builds."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if head.returncode == 0:
            return "commit " + head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources sha256 " + h.hexdigest()


def context(runs, seed, seconds):
    first = next((r for rs in runs.results.values() for r in rs), None)
    build_info = first["build"] if first else {}
    return {
        "workload": runs.workload,
        "seed": seed,
        "scenario_seeds": runs.seeds,
        "seconds": seconds,
        "repetitions": sum(len(rs) for rs in runs.results.values()),
        "build_type": build_info.get("type"),
        "compiler": build_info.get("compiler"),
        "flags": build_info.get("flags", "").strip(),
        "nproc": os.cpu_count(),
        "source": source_id(),
        # Only an optimized Release build's numbers count.
        "counts": build_info.get("type") == "Release",
    }


def print_ledger(book):
    print(f"{'layer':<20} {'self_ms':>12} {'calls':>10} {'share':>7}")
    for row, cell in book["rows"].items():
        share = cell["ms"] / book["wall_ms"] * 100.0 if book["wall_ms"] else 0.0
        print(f"{row:<20} {cell['ms']:>12.3f} {cell['calls']:>10.1f} {share:>6.2f}%")
    print(f"{'run wall':<20} {book['wall_ms']:>12.3f}")


# --- entry points ------------------------------------------------------------

def benchmark(args):
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    binary = build()
    runs, ledgers = measure(binary, args.workload, args.seed, args.seconds, args.trace == 1)

    ctx = context(runs, args.seed, args.seconds)
    print("context " + json.dumps(ctx, sort_keys=True))
    for failure in runs.failures:
        print("FAILED " + failure)
    print(f"runs_failed_ratio = {len(runs.failures) / max(1, runs.attempted):.4f} ratio "
          f"({len(runs.failures)} of {runs.attempted} runs)")

    metrics = {}
    if args.trace == 1:
        values, units, book = per_layer(runs, ledgers)
        if book:
            print_ledger(book)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    else:
        measured = end_to_end(runs)
        if measured:
            values, counts = measured
            units = dict(END_TO_END)
            metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
            print(f"samples: {counts['epochs']} epochs, {counts['admissions']} admission "
                  f"decisions over {ctx['repetitions']} repetitions")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")

    failed = len(runs.failures)
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": runs.attempted, "failed": failed, "metrics": metrics}))
    return 0


def record_digests():
    """Rewrite digests.json: every workload's scorecard digest for each
    scenario seed of the --seed values in RECORDED_SEEDS."""
    binary = build()
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in RECORDED_SEEDS:
            for s in RunSet(workload, seed, {}).seeds:
                result, failure = run_once(binary, workload, s, "inproc")
                if failure:
                    raise SystemExit(f"perfbench: {workload} {failure}")
                table[workload][str(s)] = aggregate.digest(result["scorecard"])
                log(f"{workload} seed {s}: {table[workload][str(s)][:16]}")
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if args.record_digests:
        return record_digests()
    if not args.workload:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
