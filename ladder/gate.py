"""The correctness gate: a delivered batch summary must agree with an
independent scalar BatchRunner run over the same seed range.

Only the fields every batch_summary version carries are compared, so the
gate keeps working when the summary format changes its sample encoding.
"""

import json
import subprocess

GATE_FIELDS = ("num_runs", "decided_runs", "decision_counts", "total_steps",
               "recoveries")


def fields_of(summary):
    """The gate fields of a parsed batch_summary document; a missing one
    is left out, so that mismatches() reports it."""
    return {k: summary[k] for k in GATE_FIELDS if k in summary}


def _normal(key, value):
    if key == "decision_counts":
        return {str(v): int(c) for v, c in value.items()}
    return value


def mismatches(delivered, reference):
    """Names of the gate fields on which the two differ; empty when the
    delivered summary passes."""
    return [k for k in GATE_FIELDS
            if k not in delivered or k not in reference
            or _normal(k, delivered[k]) != _normal(k, reference[k])]


def reference(probe, shape_flags, ranges):
    """Gate fields for each (first_seed, num_runs) range, computed by
    ladder_probe's scalar BatchRunner."""
    spec = ",".join(f"{first}:{count}" for first, count in ranges)
    out = subprocess.run([probe, "ref", *shape_flags, f"--ranges={spec}"],
                         check=True, capture_output=True, text=True).stdout
    refs = {}
    for line in out.splitlines():
        doc = json.loads(line)
        refs[(int(doc["first_seed"]), doc["num_runs"])] = doc["fields"]
    return [refs[(first, count)] for first, count in ranges]
