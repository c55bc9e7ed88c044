"""Self-tests for the benchmark's own logic. Run with

  python3 ladder/run.py --self-test      (or: python3 -m unittest ladder/test_ladder.py)
"""

import contextlib
import copy
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import fingerprint  # noqa: E402
import gate  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SUMMARY = {"num_runs": 1000, "decided_runs": 1000,
           "decision_counts": {"0": 497, "1": 503}, "total_steps": 9141,
           "recoveries": 0}


class GateTest(unittest.TestCase):
    def test_identical_summary_passes(self):
        doc = dict(SUMMARY, samples={"steps": []}, artifact="v1")
        self.assertEqual(gate.mismatches(gate.fields_of(doc), SUMMARY), [])

    def test_one_changed_count_is_rejected(self):
        for key in ("num_runs", "decided_runs", "total_steps", "recoveries"):
            bad = dict(SUMMARY, **{key: SUMMARY[key] + 1})
            self.assertEqual(gate.mismatches(bad, SUMMARY), [key])
        bad = copy.deepcopy(SUMMARY)
        bad["decision_counts"]["1"] -= 1
        self.assertEqual(gate.mismatches(bad, SUMMARY), ["decision_counts"])

    def test_missing_field_is_rejected(self):
        bad = {k: v for k, v in SUMMARY.items() if k != "recoveries"}
        self.assertEqual(gate.mismatches(gate.fields_of(bad), SUMMARY),
                         ["recoveries"])

    def test_decision_keys_compare_as_strings(self):
        ref = dict(SUMMARY, decision_counts={0: 497, 1: 503})
        self.assertEqual(gate.mismatches(SUMMARY, ref), [])


class FailureAccountingTest(unittest.TestCase):
    def job(self, status, summary=SUMMARY):
        return {"status": status, "summary": dict(summary, artifact="v1"),
                "ref": SUMMARY}

    def test_evictions_and_errors_count_as_failures(self):
        tally = metrics.Tally()
        workloads.gate_jobs([self.job("ok"), self.job("ok"),
                             self.job("evicted"), self.job("error")], tally)
        self.assertEqual(tally.attempted, 4)
        self.assertEqual(tally.failed["evicted"], 1)
        self.assertEqual(tally.failed["error"], 1)
        self.assertAlmostEqual(tally.fail_frac, 0.5)
        self.assertTrue(tally.correct)  # no output was wrong

    def test_gate_mismatch_fails_and_marks_incorrect(self):
        tally = metrics.Tally()
        jobs = [self.job("ok", dict(SUMMARY, total_steps=1)), self.job("ok")]
        workloads.gate_jobs(jobs, tally)
        self.assertEqual(jobs[0]["status"], "mismatch")
        self.assertAlmostEqual(tally.fail_frac, 0.5)
        self.assertFalse(tally.correct)

    def test_timeout_counts(self):
        tally = metrics.Tally()
        workloads.gate_jobs([self.job("timeout")], tally)
        self.assertEqual(tally.fail_frac, 1.0)


class PercentileTest(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(metrics.tail(list(range(1, 101))), (90.0, 90))
        self.assertEqual(metrics.tail(list(range(1, 1001))), (99.0, 990))
        self.assertEqual(metrics.tail(list(range(1, 10001))), (99.9, 9990))

    def test_tail_absent_for_few_samples(self):
        self.assertIsNone(metrics.tail(list(range(20))))
        self.assertEqual(metrics.timing([3.0, 1.0, 2.0]), {"n": 3, "p50": 2.0})

    def test_tail_ignores_input_order(self):
        values = list(range(200, 0, -1))
        self.assertEqual(metrics.tail(values), (95.0, 190))


def span(i, parent, layer, start, end):
    return {"id": i, "parent": parent, "name": f"s{i}", "layer": layer,
            "op": "x", "start_ns": start, "end_ns": end}


class SpanTest(unittest.TestCase):
    # root [0,100] (tool) with children A [10,40] (fabric) holding a
    # grandchild [20,30] (sched), B [50,90] (sched) and C [60,95] (obs);
    # B and C overlap, as forked workers do.
    SPANS = [span(1, 0, "tool", 0, 100), span(2, 1, "fabric", 10, 40),
             span(3, 2, "sched", 20, 30), span(4, 1, "sched", 50, 90),
             span(5, 1, "obs", 60, 95)]

    def test_self_time_of_nested_spans(self):
        own = spans.self_times(self.SPANS)
        self.assertEqual(own[1], 100 - 30 - 45)  # union of children
        self.assertEqual(own[2], 30 - 10)
        self.assertEqual(own[3], 10)
        self.assertEqual(spans.layer_self_ns(self.SPANS)["sched"], 10 + 40)

    def test_blocking_path_takes_the_child_that_ended_last(self):
        path = spans.blocking_path_ns(self.SPANS, self.SPANS[0])
        # 95..100 root, C 60..95, 40..60 root, A 10..40 (10 of it the
        # grandchild), 0..10 root; B ran beside C and is off the path.
        self.assertEqual(path, {"tool": 35, "obs": 35, "fabric": 20,
                                "sched": 10})
        self.assertEqual(sum(path.values()), 100)

    def test_nesting_errors(self):
        self.assertEqual(spans.nesting_errors(self.SPANS), [])
        bad = self.SPANS + [span(6, 2, "obs", 35, 45),
                            span(7, 99, "obs", 1, 2)]
        errors = spans.nesting_errors(bad)
        self.assertEqual(len(errors), 2)


class FingerprintTest(unittest.TestCase):
    FP = {"cpu_model": "X", "nproc": 4, "compiler": "g++ 12",
          "build_type": "RelWithDebInfo", "simd_width": "4",
          "simd_isa": "avx2", "git_commit": "a", "loadavg_start": 0.1}

    def report(self, fp, value):
        return {"workload": "fig2-crash", "trace": False, "fingerprint": fp,
                "metrics": {"runs_per_s": {"value": value, "unit": "1/s"}}}

    def compare(self, fp_b):
        with tempfile.TemporaryDirectory() as d:
            a, b = Path(d) / "a.json", Path(d) / "b.json"
            a.write_text(json.dumps(self.report(self.FP, 100.0)))
            b.write_text(json.dumps(self.report(fp_b, 110.0)))
            with contextlib.redirect_stdout(io.StringIO()):
                return run.compare(str(a), str(b))

    def test_other_commit_is_comparable(self):
        other = dict(self.FP, git_commit="b", loadavg_start=2.0)
        self.assertEqual(fingerprint.differences(self.FP, other), [])
        self.assertEqual(self.compare(other), 0)

    def test_other_host_or_build_is_refused(self):
        for key, value in (("cpu_model", "Y"), ("nproc", 8),
                           ("build_type", "Debug"), ("simd_width", "1")):
            other = dict(self.FP, **{key: value})
            self.assertEqual(fingerprint.differences(self.FP, other), [key])
            self.assertEqual(self.compare(other), 2)


if __name__ == "__main__":
    unittest.main()
