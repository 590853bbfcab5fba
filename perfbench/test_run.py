"""Tests of perfbench/run.py. Run from the repository root:

    python3 -m unittest discover -s perfbench

The span self-time arithmetic is tested beside its code, in
perfbench/layers (cd perfbench/layers && go test .).
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


REPORT = (b"== fig9: Figure 9: speedup\n"
          b"go  12.3%\n"
          b"[fig9 in 4.2s]\n"
          b"\n"
          b"== fig10: Figure 10: speedup\n"
          b"go  1.0%\n"
          b"[fig10 in 12.0s]\n")


class NormaliseTest(unittest.TestCase):
    def test_drops_timing_lines_only(self):
        self.assertEqual(run.normalise(REPORT),
                         b"== fig9: Figure 9: speedup\ngo  12.3%\n\n"
                         b"== fig10: Figure 10: speedup\ngo  1.0%\n")

    def test_timing_is_ignored(self):
        faster = REPORT.replace(b"4.2s", b"0.9s").replace(b"12.0s", b"130.5s")
        self.assertEqual(run.report_digest(REPORT), run.report_digest(faster))

    def test_same_digest_once_timing_moves_to_stderr(self):
        without = b"".join(l for l in REPORT.splitlines(True) if not l.startswith(b"[fig"))
        self.assertEqual(run.report_digest(REPORT), run.report_digest(without))

    def test_keeps_bracketed_results(self):
        # Only whole footer lines go; a bracket inside a result line stays.
        line = b"go  [fig9 in 4.2s] 12%\n"
        self.assertEqual(run.normalise(line), line)
        self.assertEqual(run.normalise(b"[ablmerge in 1s]\n[x]\n"), b"[x]\n")


class DigestTest(unittest.TestCase):
    def refs(self):
        d = run.report_digest(REPORT)
        return {"report_sha256": {"suite": d, "timing": d}}

    def test_matches(self):
        for wl in run.WORKLOADS:
            self.assertTrue(run.report_matches(REPORT, wl, self.refs()), wl)

    def test_one_byte_change_is_caught(self):
        for i in range(len(run.normalise(REPORT))):
            norm = bytearray(run.normalise(REPORT))
            norm[i] ^= 0x01
            self.assertFalse(run.report_matches(bytes(norm), "suite", self.refs()),
                             "flipped byte %d not caught" % i)

    def test_reference_covers_every_workload(self):
        with open(run.REFERENCE) as f:
            refs = json.load(f)
        self.assertEqual(set(refs["report_sha256"]), set(run.WORKLOADS))
        for wl in run.WORKLOADS:
            self.assertEqual(set(refs["simulated"][wl]), set(run.PINNED_SIMULATED), wl)


class CellsTest(unittest.TestCase):
    def write(self, doc):
        f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
        self.addCleanup(os.unlink, f.name)
        json.dump(doc, f)
        f.close()
        return f.name

    def test_counts_failed_and_missing_cells(self):
        path = self.write({"experiments": [
            {"id": "a", "cells": [{"workload": "x"}, {"workload": "y", "failed": True}]},
            {"id": "b", "failed": True},
        ]})
        self.assertEqual(run.count_cells(path, 4), (4, 3))

    def test_missing_payload_fails_every_cell(self):
        self.assertEqual(run.count_cells("/nonexistent/run.json", 324), (324, 324))


class NamesTest(unittest.TestCase):
    """The names run.py prints are exactly those in BENCHMARK.json, which
    run.py reads its metric names and units from."""

    def setUp(self):
        with open(run.BENCHMARK) as f:
            self.bench = json.load(f)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(run.WORKLOADS))

    def test_printed_end_to_end(self):
        wl = run.Workload("suite", None, None, None, None)
        wl.setups = [0.01, 0.02, 0.03]
        wl.reps = [{"wall_s": w, "cpu_s": 2 * w, "peak_rss_mib": 150.0, "attempted": 324,
                    "failed": 0} for w in (15.0, 16.0)]
        metrics = wl.end_to_end()
        names = [m["name"] for m in self.bench["end_to_end"]]
        self.assertEqual(set(metrics), set(names))
        units = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        line = json.loads(run.result_line(True, 648, 0, {n: metrics[n] for n in names}, units))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(line["metrics"]), names)
        for m in self.bench["end_to_end"]:
            self.assertEqual(line["metrics"][m["name"]]["unit"], m["unit"])
        self.assertEqual(line["metrics"]["wall_s"]["value"], 15.5)
        self.assertEqual(line["metrics"]["setup_s"]["value"], 0.02)
        self.assertEqual(line["metrics"]["cells_ok_frac"]["value"], 1.0)

    def test_traced_pass_names(self):
        # Every per-layer metric but the overhead, which run.py adds, is
        # emitted by the traced pass; check its source names each one.
        with open(os.path.join(run.BENCH_DIR, "layers", "main.go")) as f:
            src = f.read()
        for m in self.bench["per_layer"]:
            name = m["name"]
            if name == "bench.trace_overhead_frac":
                continue
            key = name.split(".", 1)[1] if name.startswith("heldout.") else name
            self.assertIn('"%s"' % key, src, name)


class RefusesOutsideCheckoutTest(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        with tempfile.TemporaryDirectory() as d:
            cwd = os.getcwd()
            os.chdir(d)
            try:
                code = run.main(["--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0"])
            finally:
                os.chdir(cwd)
        self.assertNotEqual(code, 0)


if __name__ == "__main__":
    unittest.main()
