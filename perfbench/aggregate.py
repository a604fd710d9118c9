"""Pure aggregation for the scored-scenario benchmark (no I/O).

- Histogram quantiles from the orchestrator's exported log-linear
  histograms (telemetry::Histogram::to_json), merged across runs.
- The per-layer wall ledger: span self-time from a Chrome trace, summed
  per layer, with the benchmark's root span's own time as
  ``unattributed``.
- Scorecard digest checks.
"""

import hashlib
import statistics

# --- histograms ----------------------------------------------------------

# Mirrors telemetry::Histogram: 2**SUB_BUCKET_BITS linear sub-buckets per
# power-of-two octave.
SUB_BUCKET_BITS = 4
SUB_BUCKETS = 1 << SUB_BUCKET_BITS


def bucket_lower(i):
    if i < SUB_BUCKETS:
        return i
    octave, sub = divmod(i, SUB_BUCKETS)
    return (SUB_BUCKETS + sub) << (octave - 1)


def bucket_upper(i):
    return bucket_lower(i + 1) - 1


def merge_histograms(docs):
    """Bucket-merge Histogram::to_json documents into one (same shape)."""
    buckets = {}
    count = 0
    total = 0
    lo = hi = None
    for doc in docs:
        if not doc or not doc.get("count"):
            continue
        for index, n in doc["buckets"]:
            buckets[int(index)] = buckets.get(int(index), 0) + int(n)
        count += int(doc["count"])
        total += int(doc["sum"])
        lo = doc["min"] if lo is None else min(lo, doc["min"])
        hi = doc["max"] if hi is None else max(hi, doc["max"])
    return {
        "buckets": sorted([i, n] for i, n in buckets.items()),
        "count": count,
        "sum": total,
        "min": lo or 0,
        "max": hi or 0,
    }


def quantile(doc, q):
    """Quantile of an exported histogram, as Histogram::value_at_quantile
    computes it (linear interpolation inside the bucket) except that each
    recorded integer v stands for the interval [v, v + 1): the wall timers
    truncate to whole microseconds, and without this every quantile below
    32 us would read as the same integer on every run."""
    count = int(doc.get("count", 0))
    if count == 0:
        return 0.0
    rank = q * (count - 1)
    cumulative = 0
    for index, n in sorted((int(i), int(n)) for i, n in doc["buckets"]):
        if n == 0:
            continue
        before = cumulative
        cumulative += n
        if cumulative <= rank:
            continue
        lo, hi = bucket_lower(index), bucket_upper(index) + 1
        v = lo + (rank - before) / n * (hi - lo)
        return min(max(v, float(doc["min"])), float(doc["max"]) + 1)
    return float(doc["max"]) + 1


# --- the per-layer wall ledger -------------------------------------------

# The benchmark's own span around ScenarioRunner::run / FederatedRunner::run.
ROOT_SPAN = "bench.run"

# Ledger row -> (metric name of its self-time sum, span names it owns,
# span names counted as its calls). Every span self-time lands in exactly
# one row; names not listed here land in "other".
LAYERS = {
    "core.admission": ("core.admission.busy_ms",
                       ("orch.admit.decide", "orch.admit.batch", "orch.admit.try",
                        "orch.admit.embed"),
                       ("orch.admit.decide", "orch.admit.batch")),
    "core.overbooking": ("core.overbooking.busy_ms", ("orch.epoch.overbooking",),
                         ("orch.epoch.overbooking",)),
    "core.poll_metrics": ("core.poll_metrics.busy_ms", ("orch.epoch.poll_metrics",),
                          ("orch.epoch.poll_metrics",)),
    "core.epoch": ("core.epoch.self_ms",
                   ("orch.serve_epoch", "orch.epoch.sample_demand", "orch.epoch.reduce",
                    "orch.epoch.publish"),
                   ("orch.serve_epoch",)),
    "ran.serve": ("ran.serve.busy_ms",
                  ("orch.epoch.ran_serve", "ran.serve_epoch", "ran.epoch.prepare",
                   "ran.epoch.cells", "ran.epoch.reduce"),
                  ("ran.serve_epoch",)),
    "ran.wander": ("ran.wander.busy_ms", ("ran.epoch.wander",), ("ran.epoch.wander",)),
    "ran.handover": ("ran.handover.busy_ms", ("ran.handover.apply",), ("ran.handover.apply",)),
    "mobility.step": ("mobility.step.busy_ms", ("mobility.step",), ("mobility.step",)),
    "transport.serve": ("transport.serve.busy_ms",
                        ("orch.epoch.transport_serve", "transport.serve_epoch"),
                        ("transport.serve_epoch",)),
    "cloud.record": ("cloud.record.busy_ms", ("orch.epoch.cloud_record", "cloud.record_epoch"),
                     ("cloud.record_epoch",)),
    "epc.deploy": ("epc.deploy.busy_ms", ("epc.deploy",), ("epc.deploy",)),
    "store": ("store.busy_ms", ("store.append", "store.snapshot"),
              ("store.append", "store.snapshot")),
    "net.bus": ("net.bus.self_ms", ("bus.call",), ("bus.call",)),
}
OTHER = "other"
UNATTRIBUTED = "unattributed"

_ROW_OF = {name: row for row, (_, spans, _) in LAYERS.items() for name in spans}


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    covered = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            covered += stop - start
            end = stop
    return covered


def self_times(events):
    """Self time (trace units) of every span in a Chrome trace event list:
    its duration minus the part of it that its children cover. Children
    are found by parent span id, so a child recorded on another lane (an
    HTTP server thread that adopted the caller's context over a socket)
    is subtracted from its caller just like a nested call."""
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    out = []
    for e in events:
        lo = e["ts"]
        hi = lo + e["dur"]
        kids = children.get(e["args"]["span"], ())
        covered = _covered([(k["ts"], k["ts"] + k["dur"]) for k in kids], lo, hi)
        out.append((e, e["dur"] - covered))
    return out


def ledger(events):
    """Per-layer ledger of one traced run.

    Returns {"rows": {row: {"ms", "calls"}}, "wall_ms", "gap_ms",
    "orphans"}. Every LAYERS row appears, zero-call rows included.
    ``wall_ms`` is the root span's duration; rows plus ``unattributed``
    plus ``other`` equal it up to ``gap_ms`` (overlapping siblings would
    show up there). ``orphans`` counts spans outside the root's tree."""
    by_id = {e["args"]["span"]: e for e in events}
    roots = [e for e in events if e["name"] == ROOT_SPAN]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT_SPAN} span, found {len(roots)}")
    root_id = roots[0]["args"]["span"]

    def in_tree(e):
        seen = 0
        while e is not None and seen <= len(by_id):
            if e["args"]["span"] == root_id:
                return True
            e = by_id.get(e["args"]["parent"])
            seen += 1
        return False

    rows = {row: {"ms": 0.0, "calls": 0} for row in LAYERS}
    rows[OTHER] = {"ms": 0.0, "calls": 0}
    rows[UNATTRIBUTED] = {"ms": 0.0, "calls": 1}
    counted = {name for _, _, calls in LAYERS.values() for name in calls}
    orphans = 0
    total = 0.0
    for e, own in self_times(events):
        if not in_tree(e):
            orphans += 1
            continue
        name = e["name"]
        row = UNATTRIBUTED if name == ROOT_SPAN else _ROW_OF.get(name, OTHER)
        rows[row]["ms"] += own / 1000.0  # trace units are µs
        if name in counted or row == OTHER:
            rows[row]["calls"] += 1
        total += own / 1000.0
    wall_ms = roots[0]["dur"] / 1000.0
    return {"rows": rows, "wall_ms": wall_ms, "gap_ms": wall_ms - total, "orphans": orphans}


def mean_ledger(ledgers):
    """Row-wise mean of several ledgers (means keep the sum-to-wall
    property that medians would lose)."""
    n = len(ledgers)
    rows = {}
    for row in ledgers[0]["rows"]:
        rows[row] = {
            "ms": sum(l["rows"][row]["ms"] for l in ledgers) / n,
            "calls": sum(l["rows"][row]["calls"] for l in ledgers) / n,
        }
    return {
        "rows": rows,
        "wall_ms": sum(l["wall_ms"] for l in ledgers) / n,
        "gap_ms": sum(l["gap_ms"] for l in ledgers) / n,
        "orphans": max(l["orphans"] for l in ledgers),
    }


# --- digests ---------------------------------------------------------------

def digest(scorecard_text):
    return hashlib.sha256(scorecard_text.encode("utf-8")).hexdigest()


def digest_failure(seed, got, recorded, first):
    """Check one repetition's scorecard digest `got` for scenario `seed`.

    ``recorded`` maps a scenario seed (string) to its recorded digest.
    Without one, every repetition of the seed must agree with the first
    seen in this run set; ``first`` (seed -> digest) remembers it. Returns
    a failure message or None."""
    if str(seed) in recorded:
        expected, source = recorded[str(seed)], "recorded"
    else:
        expected, source = first.setdefault(seed, got), "first repetition"
    if got == expected:
        return None
    return f"seed {seed}: scorecard digest {got[:12]} != {source} {expected[:12]}"


# --- small statistics ------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0
