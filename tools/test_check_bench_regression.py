#!/usr/bin/env python3
"""Unit tests of tools/check_bench_regression.py's build-type check.

    python3 tools/test_check_bench_regression.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_bench_regression.py")


def report(build_type, real_time):
    context = {"host_name": "test"}
    if build_type is not None:
        context["slices_build_type"] = build_type
    return {"context": context,
            "benchmarks": [{"name": "BM_X_median", "run_type": "aggregate",
                            "real_time": real_time, "time_unit": "ns"}]}


class BuildTypeGate(unittest.TestCase):
    def gate(self, current):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            # The baseline carries no build type: baselines are not checked.
            for name, doc in (("current.json", current), ("baseline.json", report(None, 100.0))):
                paths.append(os.path.join(tmp, name))
                with open(paths[-1], "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
            return subprocess.run([sys.executable, SCRIPT, *paths, "--bench", "BM_X"],
                                  capture_output=True, text=True, check=False)

    def test_release_run_within_tolerance_passes(self):
        self.assertEqual(self.gate(report("Release", 110.0)).returncode, 0)

    def test_release_run_past_tolerance_fails(self):
        self.assertEqual(self.gate(report("Release", 200.0)).returncode, 1)

    def test_non_release_run_fails_however_fast(self):
        for build_type in ("Debug", "RelWithDebInfo", "", None):
            result = self.gate(report(build_type, 50.0))
            self.assertEqual(result.returncode, 2, build_type)
            self.assertIn("not 'Release'", result.stderr)


if __name__ == "__main__":
    unittest.main()
