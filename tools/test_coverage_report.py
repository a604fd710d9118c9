#!/usr/bin/env python3
"""Unit tests of tools/coverage_report.py on synthetic gcov JSON.

    python3 tools/test_coverage_report.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import coverage_report  # noqa: E402

ROOT = "/repo"


def gcov_doc(*files):
    """A gcov --json-format document: files is (path, {name: count})."""
    return {
        "gcc_version": "12.2.0",
        "current_working_directory": "/repo/build/src/x",
        "files": [
            {"file": path,
             "functions": [{"name": "_Z" + name, "demangled_name": name,
                            "execution_count": count, "start_line": 1}
                           for name, count in functions.items()],
             "lines": []}
            for path, functions in files
        ],
    }


def gate(docs, allowlist):
    functions = {}
    for doc in docs:
        coverage_report.merge(functions,
                              coverage_report.functions_from_gcov_json(doc, ROOT))
    return coverage_report.check(functions, coverage_report.parse_allowlist(allowlist))


TU = gcov_doc(
    ("/repo/src/a/a.cpp", {"a::used()": 3, "a::unused()": 0, "a::route()::{lambda#1}": 0}),
    ("/usr/include/c++/12/vector", {"std::vector<int>::size()": 0}),
)

MATCHING = """
# comment
reason: only the tests call it
src/a/a.cpp:a::unused()
reason: REST routes
src/a/*.cpp:*::route()::{lambda*
"""


class CoverageGate(unittest.TestCase):
    def test_passes_when_allowlist_matches_unreached_set(self):
        self.assertEqual(gate([TU], MATCHING), [])

    def test_fails_on_unlisted_unreached_function(self):
        failures = gate([TU], "reason: routes\nsrc/a/a.cpp:*::route()::{lambda*\n")
        self.assertEqual(len(failures), 1)
        self.assertIn("not allowlisted: src/a/a.cpp:a::unused()", failures[0])

    def test_fails_on_stale_entry(self):
        failures = gate([TU], MATCHING + "src/a/a.cpp:a::used()\n")
        self.assertEqual(len(failures), 1)
        self.assertIn("stale allowlist entry (line 7): src/a/a.cpp:a::used()", failures[0])

    def test_function_reached_in_any_translation_unit_counts_as_reached(self):
        header_cold = gcov_doc(("/repo/src/a/h.hpp", {"a::inl()": 0}))
        header_hot = gcov_doc(("/repo/src/a/h.hpp", {"a::inl()": 7}))
        self.assertEqual(gate([TU, header_cold, header_hot], MATCHING), [])
        failures = gate([TU, header_cold], MATCHING)
        self.assertEqual(failures, ["unreached and not allowlisted: src/a/h.hpp:a::inl()"])

    def test_glob_over_template_arguments_matches_only_the_unreached_instantiation(self):
        header = gcov_doc(("/repo/src/a/map.hpp", {"a::Map<int>::size() const": 4,
                                                    "a::Map<long>::size() const": 0}))
        allowlist = MATCHING + "reason: accessors\nsrc/a/map.hpp:a::Map<*>::size() const\n"
        allow = coverage_report.parse_allowlist(allowlist)
        functions = {}
        for doc in (TU, header):
            coverage_report.merge(functions,
                                  coverage_report.functions_from_gcov_json(doc, ROOT))
        self.assertEqual(coverage_report.check(functions, allow), [])
        self.assertEqual(allow.entries[-1].matched, 1)
        # Once the second instantiation is reached too, the entry is stale.
        reached = gcov_doc(("/repo/src/a/map.hpp", {"a::Map<long>::size() const": 1}))
        failures = gate([TU, header, reached], allowlist)
        self.assertEqual(len(failures), 1)
        self.assertIn("stale allowlist entry (line 8): src/a/map.hpp:a::Map<*>::size() const",
                      failures[0])

    def test_relative_paths_resolve_against_the_gcov_working_directory(self):
        doc = gcov_doc(("../../../src/a/a.cpp", {"a::unused()": 0}))
        functions = coverage_report.functions_from_gcov_json(doc, ROOT)
        self.assertEqual(functions, {("src/a/a.cpp", "a::unused()"): 0})

    def test_malformed_allowlist_fails(self):
        self.assertTrue(gate([TU], "src/a/a.cpp:a::unused()\n"))  # no reason yet
        self.assertTrue(gate([TU], "reason: x\nno-colon-here\n"))
        self.assertTrue(gate([TU], MATCHING + "reason: nothing below\n"))


if __name__ == "__main__":
    unittest.main()
