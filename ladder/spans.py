"""Span arithmetic for the traced run: nesting checks, per-layer self time
and the share of the blocking path each layer holds.

A span is a dict with id, parent (0 for a root), name, layer, op, start_ns
and end_ns.
"""

from collections import defaultdict

LAYERS = ("tool", "sched", "fabric", "obs", "svc", "fleet")


def _children(spans):
    kids = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append(s)
    return kids


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def nesting_errors(spans):
    """Spans that end before they start, name a missing parent, or stick
    out of their parent's interval."""
    by_id = {s["id"]: s for s in spans}
    errors = []
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            errors.append(f"{s['name']}: ends before it starts")
        if s["parent"] == 0:
            continue
        p = by_id.get(s["parent"])
        if p is None:
            errors.append(f"{s['name']}: parent {s['parent']} missing")
        elif s["start_ns"] < p["start_ns"] or s["end_ns"] > p["end_ns"]:
            errors.append(f"{s['name']}: outside parent {p['name']}")
    return errors


def self_times(spans):
    """Span id -> duration minus the part its child spans cover."""
    kids = _children(spans)
    return {s["id"]: (s["end_ns"] - s["start_ns"]) - _covered(
                [(c["start_ns"], c["end_ns"]) for c in kids[s["id"]]],
                s["start_ns"], s["end_ns"])
            for s in spans}


def layer_self_ns(spans):
    """Layer -> summed self time. Concurrent spans (forked workers, client
    sessions) each count in full, so the sum can exceed the wall time."""
    own = self_times(spans)
    out = defaultdict(int)
    for s in spans:
        out[s["layer"]] += own[s["id"]]
    return dict(out)


def blocking_path_ns(spans, root):
    """Layer -> time on the blocking path under `root`. Walking back from
    the root's end, the child that ended last is the one the parent waited
    for; its interval is attributed recursively, the gaps between chosen
    children to the parent's own layer."""
    kids = _children(spans)
    out = defaultdict(int)

    def walk(span, lo, hi):
        t = hi
        while True:
            waited = [c for c in kids[span["id"]] if lo < c["end_ns"] <= t]
            if not waited:
                break
            c = max(waited, key=lambda c: c["end_ns"])
            out[span["layer"]] += t - c["end_ns"]
            start = max(c["start_ns"], lo)
            walk(c, start, c["end_ns"])
            t = start
        out[span["layer"]] += max(0, t - lo)

    walk(root, root["start_ns"], root["end_ns"])
    return dict(out)


def layer_table(spans, root):
    """Per layer: its self time and its part of the blocking path, as
    shares of the root's wall time."""
    wall = root["end_ns"] - root["start_ns"]
    own = layer_self_ns(spans)
    path = blocking_path_ns(spans, root)
    return {layer: {"self_share": own.get(layer, 0) / wall if wall else 0.0,
                    "path_share": path.get(layer, 0) / wall if wall else 0.0}
            for layer in LAYERS}
