#!/usr/bin/env python3
"""Self test of the pipeline benchmark at smoke size.

    python3 pipebench/selftest.py

Checks BENCHMARK.json against the result contract, runs every workload
with --smoke (tracing off and on) through run.py and checks each result
line: exactly the keys correct/attempted/failed/metrics, a correct run, and
metric names and units equal to those BENCHMARK.json lists. The smoke runs
use seed 1, so they also check the frozen smoke rows of the oracle. Last,
it copies only BENCHMARK.json and pipebench/ into a scratch directory and
checks that the benchmark fails there without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec, problems):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    names = set()
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[group]:
            if not NAME.match(entry["name"]) or entry["name"] in names:
                problems.append(f"bad or repeated name {entry['name']!r}")
            names.add(entry["name"])
            if group != "workloads" and not UNIT.match(entry["unit"]):
                problems.append(f"bad unit {entry['unit']!r}")
    for entry in spec["workloads"]:
        if set(entry) != {"name", "why"} or len(entry["why"]) > 200 or "\n" in entry["why"]:
            problems.append(f"bad workload entry {entry['name']}")
    for entry in spec["end_to_end"]:
        if set(entry) != {"name", "unit", "better", "bound"} or not 0 < entry["bound"] <= 0.25:
            problems.append(f"bad end_to_end entry {entry['name']}")
    for entry in spec["per_layer"]:
        if set(entry) != {"name", "unit", "better"}:
            problems.append(f"bad per_layer entry {entry['name']}")
    if not 2 <= len(spec["workloads"]) <= 8 or not 1 <= len(spec["per_layer"]) <= 128:
        problems.append("workload or per_layer count out of range")
    if not any(e["name"] == "setup_s" and e["unit"] == "s" for e in spec["end_to_end"]):
        problems.append("no setup_s metric")


def run(cwd, workload, trace, env):
    command = [sys.executable, "pipebench/run.py", "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=900)


def check_result(spec, workload, trace, result, problems):
    label = f"{workload} --trace {trace}"
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        problems.append(f"{label}: exit {result.returncode}\n{result.stderr[-2000:]}")
        return
    line = json.loads(lines[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(line)}")
    if line["correct"] is not True or line["attempted"] < 1:
        problems.append(f"{label}: incorrect run\n{result.stderr[-2000:]}")
    expected = {e["name"]: e["unit"] for e in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: metric["unit"] for name, metric in line["metrics"].items()}
    if printed != expected:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(printed.items()) ^ set(expected.items()))}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    check_spec(spec, problems)

    env = dict(os.environ)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace, run(ROOT, workload, trace, env), problems)
            print(f"selftest: {workload} --trace {trace} done", file=sys.stderr)

    # Without the library sources the benchmark must fail and print nothing.
    stripped = os.path.join(ROOT, ".bench_build", "selftest-stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    os.makedirs(stripped)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
    shutil.copytree(HERE, os.path.join(stripped, "pipebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env.pop("CARGO_TARGET_DIR", None)
    result = run(stripped, spec["workloads"][0]["name"], 0, env)
    if result.returncode == 0 or result.stdout.strip():
        problems.append("stripped tree: benchmark did not fail cleanly")
    shutil.rmtree(stripped, ignore_errors=True)

    for problem in problems:
        print(f"selftest: FAIL {problem}", file=sys.stderr)
    print(f"selftest: {'FAIL' if problems else 'ok'}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
