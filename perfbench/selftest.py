#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (seconds once built).

    python3 perfbench/selftest.py

Builds the benchmark the way run.py does, then checks for every workload:
  - --trace 0 prints every end_to_end metric of BENCHMARK.json, with its
    unit, in a result line reading "correct": true, and exits 0;
  - --trace 1 prints every per_layer metric with its unit and writes a span
    log that holds a span of every layer boundary;
  - the same seed gives the same stream digest, another seed a different one;
  - a wrong pinned output digest fails the run: exit 1, "correct": false.
It also checks that run.py exits nonzero, without a result line, in a
directory holding only BENCHMARK.json and perfbench/. Exits nonzero on the
first failure.
"""

import json
import shutil
import subprocess
import sys

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"
SCALE = "0.02"
SPANS = [
    "shadow.packet", "pkt.ipv4_udp_decode", "distiller.peek", "distiller.distill",
    "trail_manager.add", "event_generator.process", "rules.on_event", "enforce.decide",
    "engine.on_packet", "obs.snapshot", "shard_router.route", "sharded_engine.on_packet",
    "sharded_engine.flush", "fleet.on_packet", "fleet.flush",
]


def fail(message):
    sys.exit(f"selftest: FAIL: {message}")


def invoke(binary, *args):
    return subprocess.run([str(binary), *args], capture_output=True, text=True, timeout=300)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"no output (exit {proc.returncode}): {proc.stderr}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    return result


def check_metrics(result, declared, what):
    printed = result["metrics"]
    for m in declared:
        if m["name"] not in printed:
            fail(f"{what}: {m['name']} not printed")
        if printed[m["name"]]["unit"] != m["unit"]:
            fail(f"{what}: {m['name']} unit {printed[m['name']]['unit']} != {m['unit']}")
        if not isinstance(printed[m["name"]]["value"], (int, float)):
            fail(f"{what}: {m['name']} value is not a number")
    extra = set(printed) - {m["name"] for m in declared}
    if extra:
        fail(f"{what}: undeclared metrics {sorted(extra)}")


def main():
    spec = json.loads(BENCHMARK.read_text())
    binary = run.build()
    traces = run.build_dir().parent / "perfbench-selftest"
    traces.mkdir(parents=True, exist_ok=True)

    for workload in run.WORKLOADS:
        base = ["--workload", workload, "--seed", "7", "--seconds", "0.2", "--scale", SCALE]

        proc = invoke(binary, *base, "--trace", "0")
        result = result_line(proc)
        if proc.returncode != 0 or result["correct"] is not True or result["attempted"] < 1:
            fail(f"{workload} --trace 0: exit {proc.returncode}\n{proc.stdout}")
        check_metrics(result, spec["end_to_end"], f"{workload} --trace 0")

        span_log = traces / f"{workload}.json"
        proc = invoke(binary, *base, "--trace", "1", "--trace-out", str(span_log))
        result = result_line(proc)
        if proc.returncode != 0 or result["correct"] is not True:
            fail(f"{workload} --trace 1: exit {proc.returncode}\n{proc.stdout}")
        check_metrics(result, spec["per_layer"], f"{workload} --trace 1")
        recorded = {s["name"] for s in json.loads(span_log.read_text())["spans"]}
        missing = [s for s in SPANS if s not in recorded]
        if missing:
            fail(f"{workload}: spans never recorded: {missing}")

        def digest(seed):
            proc = invoke(binary, "--workload", workload, "--seed", str(seed), "--scale", SCALE,
                          "--digest-only")
            return json.loads(proc.stdout)["digest"]
        if digest(1) != digest(1):
            fail(f"{workload}: one seed gave two stream digests")
        if digest(1) == digest(2):
            fail(f"{workload}: two seeds gave one stream digest")

        proc = invoke(binary, *base, "--trace", "0", "--expect", "0" * 16)
        if proc.returncode != 1 or result_line(proc)["correct"] is not False:
            fail(f"{workload}: a wrong pinned digest did not fail the run")
        print(f"selftest: {workload} ok")

    # Without the library sources the benchmark must refuse to run.
    bare = run.build_dir().parent / "perfbench-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(BENCHMARK, bare / "BENCHMARK.json")
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "carrier_mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run.py ran without the library sources")
    print("selftest: bare checkout refused ok")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
