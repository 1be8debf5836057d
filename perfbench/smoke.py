#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload in BENCHMARK.json at a tiny size (``--quick``), with
and without tracing, through the benchmark's own command, and checks that:

* the last line of standard output is the result object, with exactly the
  keys ``correct``, ``attempted``, ``failed`` and ``metrics``, and the run
  passed its output checks;
* every listed metric is emitted, with its listed unit, and no other;
* metric names match ``[A-Za-z0-9_.-]+`` and the lists stay within the
  limits (at most 16 end-to-end and 128 per-layer metrics, bounds at most
  0.25);
* without the rest of the repository, the command fails without printing
  a result.

Usage, from the repository root:  python3 perfbench/smoke.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def check_spec(spec):
    if not 2 <= len(spec["workloads"]) <= 8:
        fail("there must be 2 to 8 workloads")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        fail("there must be 1 to 16 end-to-end metrics")
    if not 1 <= len(spec["per_layer"]) <= 128:
        fail("there must be 1 to 128 per-layer metrics")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for n in names:
        if not NAME.match(n):
            fail(f"bad name {n!r}")
    if len(set(names)) != len(names):
        fail("a name is used twice")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            fail(f"bad unit or direction on {m['name']}")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            fail(f"bound of {m['name']} is outside (0, 0.25]")
    if "setup_s" not in [m["name"] for m in spec["end_to_end"]]:
        fail("setup_s is missing")


def run(command, args, cwd):
    p = subprocess.run(command + args, cwd=cwd, capture_output=True, text=True, timeout=900)
    return p.returncode, p.stdout, p.stderr


def check_run(spec, command, workload, trace):
    args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"]
    code, out, err = run(command, args, ".")
    if code != 0:
        fail(f"{workload} trace={trace} exited {code}:\n{out[-2000:]}\n{err[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys are {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: checks failed: {out[-3000:]}")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"{workload} trace={trace}: metrics differ: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != want[name]:
            fail(f"{workload}: metric {name} is {m}, expected unit {want[name]}")
        if not isinstance(m["value"], (int, float)):
            fail(f"{workload}: metric {name} is not a number")
        if not trace and m["value"] == 0:
            fail(f"{workload}: end-to-end metric {name} is 0")
    print(f"smoke: {workload} trace={trace}: {len(got)} metrics ok")


def check_without_sources(command):
    with tempfile.TemporaryDirectory(dir="perfbench/out") as tmp:
        shutil.copy("BENCHMARK.json", tmp)
        shutil.copytree("perfbench", os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "target"))
        code, out, _ = run(command, ["--workload", "zoo-compile", "--seed", "1",
                                     "--seconds", "1", "--trace", "0"], tmp)
        if code == 0 or out.strip():
            fail("without the repository the benchmark must fail without a result")
    print("smoke: fails without the repository's sources: ok")


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    check_spec(spec)
    command = spec["command"]
    os.makedirs("perfbench/out", exist_ok=True)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, command, w["name"], trace)
    check_without_sources(command)
    print("smoke: all ok")


if __name__ == "__main__":
    main()
