#!/usr/bin/env python3
"""D3L system benchmark driver.

    python3 perfbench/run.py --workload <index-build|online-query> --seed <n>
                             --seconds <s> --trace <0|1>

Run from the repository root. Builds the program from source when needed
(perfbench/build.py), runs one workload in a fresh JVM, and prints the JVM's
report followed by one JSON result line: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics (spans are written under
.bench_build/). Exits non-zero without a result line when the build, the
run or a result check fails.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

DEADLINE_S = 170
HEAP = "3g"
# Module openings Spark needs on Java 17 (as spark-submit passes them).
ADD_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
    "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def main() -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {a.workload}", file=sys.stderr)
        return 2
    classes = build.build()
    out = build.BUILD_DIR / "runs"
    tmp = build.BUILD_DIR / "tmp"
    out.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    cp = os.pathsep.join([str(classes), str(build.spark_jars() / "*")])
    # A fixed-size heap and the parallel collector: on 4 cores, three same-seed
    # index builds spread over 4% with them and over 14% with the defaults.
    cmd = ([build.java(), "-XX:-UsePerfData", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC",
            f"-Djava.io.tmpdir={tmp}",
            "-Dlog4j2.configurationFile=perfbench/log4j2.properties"] + ADD_OPENS +
           ["-cp", cp, "repro.perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace, "--out", str(out)])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded its deadline", file=sys.stderr)
        return 1
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        sys.stderr.write(stdout)
        print(f"perfbench: JVM exited with {proc.returncode} and no result", file=sys.stderr)
        return 1
    kind = "per_layer" if a.trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    values = result["metrics"]
    wrong = set(values) ^ set(declared) if kind == "end_to_end" else set(values) - set(declared)
    if wrong:
        print(f"perfbench: metrics {sorted(wrong)} do not match BENCHMARK.json {kind}", file=sys.stderr)
        return 1
    # A layer the workload leaves idle reads 0.
    result["metrics"] = {n: {"value": values.get(n, 0), "unit": u} for n, u in declared.items()}
    (out / f"result-{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(json.dumps(result) + "\n")
    print("\n".join(lines[:-1]))
    untraced = out / f"result-{a.workload}-seed{a.seed}-trace0.json"
    if a.trace == "1" and untraced.is_file():
        op = json.loads(untraced.read_text())["metrics"]["op_p50_s"]["value"]
        traced = result["metrics"]["trace.op_s"]["value"]
        print(f"tracing overhead: traced op {traced:.3f} s - untraced op {op:.3f} s = {traced - op:.3f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
