"""Self times of the spans in a Chrome/Perfetto trace file.

The benchmark driver writes its spans as complete ("X") events whose
args carry the span's id, the id of the span that caused it (its
parent) and a call id. A span's self time is its duration minus the
part of it that its child spans cover.
"""

import json


def load(path):
    """The "X" events of the trace file at @p path."""
    with open(path) as f:
        doc = json.load(f)
    return [e for e in doc["traceEvents"] if e.get("ph") == "X"]


def self_times(events):
    """Total self time (microseconds) and number of spans, per name.

    Children of one parent never overlap (the benchmark runs in one
    thread), but each is clipped to its parent's interval so that a
    malformed file cannot yield a negative self time.
    """
    by_id = {e["args"]["id"]: e for e in events}
    covered = {}
    for e in events:
        parent = by_id.get(e["args"]["parent"])
        if parent is None:
            continue
        start = max(e["ts"], parent["ts"])
        end = min(e["ts"] + e["dur"], parent["ts"] + parent["dur"])
        if end > start:
            pid = parent["args"]["id"]
            covered[pid] = covered.get(pid, 0.0) + (end - start)
    totals, counts = {}, {}
    for e in events:
        own = max(0.0, e["dur"] - covered.get(e["args"]["id"], 0.0))
        totals[e["name"]] = totals.get(e["name"], 0.0) + own
        counts[e["name"]] = counts.get(e["name"], 0) + 1
    return totals, counts
