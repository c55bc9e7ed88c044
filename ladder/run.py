#!/usr/bin/env python3
"""The layer-ladder benchmark for cilcoord.

  python3 ladder/run.py --workload fig1-fabric --seed 1 --seconds 20 --trace 0
  python3 ladder/run.py --workload all --seed 1 --seconds 20 --trace 1
  python3 ladder/run.py --compare A.json B.json
  python3 ladder/run.py --self-test

Run from the repository root. The first run configures and builds the
repository plus ladder_probe into $CARGO_TARGET_DIR (default .bench_build).
Each run prints a table of every metric with its unit and sample count,
writes a report with the host and build fingerprint under .ladder_reports/,
and ends with one JSON line: the end-to-end metrics of BENCHMARK.json
(--trace 0) or its per-layer metrics (--trace 1); with --workload all it
prints one such line per workload, in order. It exits non-zero when a
delivered result fails the correctness gate. See ladder/NOTES.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import fingerprint  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
WORKLOADS = ("fig1-fabric", "fig2-crash", "svc-mix")


def build():
    """Configure once, then build incrementally. Returns the build dir."""
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        raise SystemExit("ladder: no cilcoord sources next to ladder/; "
                         "run from a full checkout")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    with open(ROOT / ".ladder_build.log", "a") as log:
        if not (build_dir / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=log, stderr=subprocess.STDOUT, check=True)
        subprocess.run(["cmake", "--build", str(build_dir), "-j",
                        str(len(os.sched_getaffinity(0)))],
                       stdout=log, stderr=subprocess.STDOUT, check=True)
    return build_dir


def spec_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def print_table(workload, trace, values, counts, detail):
    print(f"== {workload} ({'traced' if trace else 'measured'})")
    for m in spec_metrics(trace):
        n = counts.get(m["name"], "")
        print(f"  {m['name']:<38} {values[m['name']]:>16.6g} {m['unit']:<8}"
              f" n={n}")
    for key, entry in detail.items():
        if isinstance(entry, dict) and "unit" in entry:
            extra = (f" (p{entry['percentile']:g})" if "percentile" in entry
                     else "")
            value = entry["value"] if entry["value"] is not None else float("nan")
            print(f"  {key:<38} {value:>16.6g} {entry['unit']:<8}"
                  f" n={entry['n']}{extra}")
        else:
            print(f"  {key:<38} {json.dumps(entry)}")


def run_one(workload, seed, seconds, trace, build_dir):
    work = ROOT / ".ladder_runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = workloads.Env(build_dir, work, seed, seconds)
    fp = fingerprint.collect(ROOT, build_dir, env.coordd)
    try:
        if trace:
            if workload == "svc-mix":
                values, tally, detail = workloads.trace_svc(env)
            else:
                wl = workloads.FIG1 if workload == "fig1-fabric" else workloads.FIG2
                values, tally, detail = wl.trace(env)
            counts = {}
        elif workload == "svc-mix":
            values, counts, tally, detail = workloads.measure_svc(env)
        else:
            wl = workloads.FIG1 if workload == "fig1-fabric" else workloads.FIG2
            values, counts, tally, detail = wl.measure(env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_table(workload, trace, values, counts, detail)
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "fingerprint": fp,
              "metrics": {m["name"]: {"value": values[m["name"]],
                                      "unit": m["unit"],
                                      "n": counts.get(m["name"])}
                          for m in spec_metrics(trace)},
              "all_values": values, "detail": detail,
              "attempted": tally.attempted, "failed": tally.failures,
              "correct": tally.correct}
    out = ROOT / ".ladder_reports" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"  report: {out.relative_to(ROOT)}")
    return report


def compare(a_path, b_path):
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    diff = fingerprint.differences(a["fingerprint"], b["fingerprint"])
    if diff:
        print("refusing to compare, the fingerprints differ: " + ", ".join(
            f"{k}: {a['fingerprint'].get(k)!r} vs {b['fingerprint'].get(k)!r}"
            for k in diff))
        return 2
    if a["workload"] != b["workload"] or a["trace"] != b["trace"]:
        print("refusing to compare different workloads or modes")
        return 2
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        delta = (mb["value"] - ma["value"]) / ma["value"] if ma["value"] else 0
        print(f"  {name:<38} {ma['value']:>14.6g} -> {mb['value']:>14.6g} "
              f"{ma['unit']:<8} {delta:+.1%}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        import unittest
        suite = unittest.defaultTestLoader.discover(str(HERE), "test_*.py")
        return 0 if unittest.TextTestRunner().run(suite).wasSuccessful() else 1
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")

    t0 = time.perf_counter()
    build_dir = build()
    print(f"build ready in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [run_one(w, args.seed, args.seconds, bool(args.trace), build_dir)
               for w in names]
    for r in reports:
        print(json.dumps({
            "correct": r["correct"], "attempted": r["attempted"],
            "failed": r["failed"],
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in r["metrics"].items()}}))
    return 0 if all(r["correct"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
