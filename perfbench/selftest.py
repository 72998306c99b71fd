#!/usr/bin/env python3
"""Self-check of the benchmark: reconciliation and output shape.

Run from the root of a checkout:

    python3 perfbench/selftest.py [--seconds 2] [--seed 7] [workload ...]

For each workload (all four by default) it makes one untraced and one
traced run and fails on the first problem:

- the run exits non-zero or reports wrong bytes;
- the JSON line does not carry exactly the metrics BENCHMARK.json
  lists for that mode;
- a `reconcile` line reads MISMATCH (delivered bytes vs plaintext,
  decorator block and byte counts vs the library's registry, server
  bytes_sent vs the body bytes the clients received);
- the span file does not parse, a span's parent is missing, or no
  server-side block decode was tied to an HTTP request.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPAN_NAMES = {"compress", "cat", "open", "session.read", "backend.decode_block",
              "source.read_at", "http.request"}


def fail(msg: str) -> None:
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def run(workload: str, seed: int, seconds: int, trace: int) -> list:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        fail(f"{workload} trace={trace} exited {p.returncode}\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
    return p.stdout.strip().splitlines()


def check_result(lines: list, expected: list, what: str) -> None:
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        fail(f"{what}: correct={result['correct']} attempted={result['attempted']}")
    if list(result["metrics"]) != expected:
        fail(f"{what}: metrics {list(result['metrics'])} != {expected}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            fail(f"{what}: metric {name} malformed: {m}")


def check_trace(path: str, what: str) -> None:
    with open(path) as f:
        doc = json.load(f)
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    if not spans:
        fail(f"{what}: no spans in {path}")
    ids = {e["args"]["id"] for e in spans}
    names = {e["name"] for e in spans}
    if not names <= SPAN_NAMES or not {"cat", "http.request", "compress"} <= names:
        fail(f"{what}: span names {sorted(names)}")
    orphans = [e for e in spans if e["args"]["parent"] not in ids and e["args"]["parent"] != 0]
    if orphans:
        fail(f"{what}: {len(orphans)} spans with a missing parent, e.g. {orphans[0]}")
    linked = [e for e in spans
              if e["name"] == "backend.decode_block" and e["args"]["request"] != 0]
    if not linked:
        fail(f"{what}: no server-side block decode is tied to an HTTP request")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    for w in workloads:
        what = f"{w} trace=0"
        check_result(run(w, args.seed, args.seconds, 0), end_to_end, what)
        print(f"selftest: {what} ok")

        what = f"{w} trace=1"
        lines = run(w, args.seed, args.seconds, 1)
        check_result(lines, per_layer, what)
        checks = [l for l in lines if l.startswith("reconcile ")]
        if len(checks) < 4:
            fail(f"{what}: only {len(checks)} reconcile lines")
        for line in checks:
            if not line.endswith(" ok"):
                fail(f"{what}: {line}")
        check_trace(os.path.join(".bench_build", "perfbench", f"trace-{w}-{args.seed}.json"), what)
        print(f"selftest: {what} ok ({len(checks)} reconcile checks)")
    print("selftest: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
