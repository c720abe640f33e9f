#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 e2ebench/selftest.py

Runs a tiny-scale pass of every workload in BENCHMARK.json, untraced and
traced, through run.py from the repository root. Asserts that each run is
correct and prints exactly the metrics BENCHMARK.json names for its mode,
each with the declared unit, and that every end-to-end value is positive.
Then runs every workload against a deliberately wrong oracle hash and
asserts that the run fails (non-zero exit, "correct": false).
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("%s: no output (exit %d)\n%s" %
                             (command, proc.returncode, proc.stderr))
    return proc.returncode, json.loads(lines[-1]), proc.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s --trace %d" % (workload, trace)
            code, result, text = run(workload, trace)
            expect(code == 0, "%s: exit %d\n%s" % (label, code, text))
            expect(result["correct"] is True, label + ": not correct")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   label + ": attempted/failed = %d/%d" % (result["attempted"], result["failed"]))
            declared = {m["name"]: m["unit"] for m in spec[key]}
            printed = result["metrics"]
            expect(set(printed) == set(declared),
                   "%s: metrics differ from BENCHMARK.json %s: %s" %
                   (label, key, sorted(set(printed) ^ set(declared))))
            for name, unit in declared.items():
                metric = printed.get(name)
                if metric is None:
                    continue
                expect(metric.get("unit") == unit,
                       "%s: %s unit %r, declared %r" % (label, name, metric.get("unit"), unit))
                value = metric.get("value")
                expect(isinstance(value, (int, float)) and math.isfinite(value),
                       "%s: %s value %r" % (label, name, value))
                if trace == 0:
                    expect(value > 0, "%s: %s is %r, end-to-end metrics are never 0" %
                           (label, name, value))
            print("ok   %s (%d metrics)" % (label, len(printed)))

        code, result, _ = run(workload, 0, "--corrupt-oracle")
        expect(code != 0 and result["correct"] is False,
               "%s: a wrong oracle hash did not fail the run (exit %d)" % (workload, code))
        print("ok   %s --corrupt-oracle fails the run" % workload)

    for failure in failures:
        print("FAIL " + failure)
    print("selftest " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
