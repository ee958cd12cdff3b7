#!/usr/bin/env python3
"""Small-size self-check of the benchmark.

Runs every workload of BENCHMARK.json at the tiny input size, untraced
and traced, and checks that the oracle passed (no failed operation),
that every metric BENCHMARK.json names is printed with its unit, and
that each is above 0 on the workloads that exercise it.

Run from the repository root:

    python3 perfbench/selfcheck.py
"""

import json
import subprocess
import sys

# Per-layer metric prefix -> workloads whose traced run must read it above 0.
EXERCISED = {
    "sources.": {"paper", "crowd", "wire"},
    "gate.": {"crowd"},
    "reorder.": {"wire"},
    "engine.": {"paper", "crowd", "wire"},
    "shard.": {"crowd"},
    "middleware.": {"paper", "crowd", "wire"},
    "control.": {"crowd"},
    "shed.": {"crowd"},
    "overlay.repairs": {"crowd"},
    "overlay.messages": {"paper", "crowd"},
    "overlay.bytes": {"paper", "crowd"},
    "overlay.": {"paper"},
    "wire.": {"wire"},
    "subscriber.": {"wire"},
    "setup.connect_ms": {"wire"},
    "setup.": {"paper", "crowd", "wire"},
}
# Metrics the oracle requires to be exactly 0.
ZERO = {"shed.dropped"}


def exercised(name):
    for prefix, workloads in EXERCISED.items():
        if name.startswith(prefix):
            return workloads
    raise KeyError(name)


def run(bench, workload, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = run(bench, name, trace)
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            for m in declared:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{name}: {m['name']} missing")
                    continue
                if got["unit"] != m["unit"]:
                    problems.append(f"{name}: {m['name']} unit {got['unit']} != {m['unit']}")
                must_be_positive = trace == 0 or (
                    name in exercised(m["name"]) and m["name"] not in ZERO)
                if m["name"] in ZERO and got["value"] != 0:
                    problems.append(f"{name}: {m['name']} = {got['value']}, expected 0")
                elif must_be_positive and not got["value"] > 0:
                    problems.append(f"{name}: {m['name']} = {got['value']}, expected > 0")
            print(f"{name} trace={trace}: {result['attempted']} operations, "
                  f"{len(result['metrics'])} metrics")
    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
