#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload paper-e2e --seed 1 --seconds 10 --trace 0

The library and the perfbench driver are built (Release) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset.
The report lists every metric with its unit and sample count, the
correctness checks and the provenance; the last line of stdout is

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

holding BENCHMARK.json's end_to_end metrics (--trace 0) or its per_layer
metrics (--trace 1).  A traced run also writes a Chrome trace-event file
and derives each module's self time per unit of traced work from it.  The exit code is 0 only when
every check passed.

    python3 perfbench/run.py --write-benchmark-json   # BENCHMARK.json from spec.py
    python3 perfbench/run.py --describe               # workloads and layer map
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

START = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import spec  # noqa: E402

BUILD_DEADLINE_S = 850
# The run's own allowance, counted from the end of the build.
RUN_ALLOWANCE_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def remaining(deadline):
    return max(1.0, deadline - (time.monotonic() - START))


def run_logged(cmd, deadline):
    """Runs a build step, its output going to stderr only on failure."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-6000:])
        fail("failed: " + " ".join(cmd))


def build():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    directory = os.path.join(ROOT, base, "perfbench")
    configured = any(os.path.exists(os.path.join(directory, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", HERE, "-B", directory, *generator,
                    "-DCMAKE_BUILD_TYPE=Release", "-DHYBRIDCDN_NATIVE=OFF",
                    "-DHYBRIDCDN_SANITIZE=OFF", "-DHYBRIDCDN_TSAN=OFF"],
                   BUILD_DEADLINE_S)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    run_logged(["cmake", "--build", directory, "--target", "perfbench",
                "-j", jobs], BUILD_DEADLINE_S)
    return directory


def git_commit():
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts without git."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for directory, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            files.extend(os.path.join(directory, n) for n in sorted(names))
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def layer_of(event):
    category = event.get("cat", "")
    if category in spec.MODULES:
        return category
    head = event.get("name", "").split("/")[0]
    if head in spec.MODULES:
        return head
    return "redirectd" if head == "redirect" else None


def self_times_ms(trace_path, units):
    """Per-module self time per unit of traced work: each span's duration
    minus the part of it that its child spans (same thread, nested) cover."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    threads = {}
    for e in events:
        if e.get("ph") == "X":
            threads.setdefault(e.get("tid"), []).append(
                (float(e["ts"]), float(e.get("dur", 0.0)), layer_of(e)))
    total_us = {m: 0.0 for m in spec.MODULES}

    def close(span):
        end, layer, child_us, dur = span
        if layer is not None:
            total_us[layer] += max(0.0, dur - child_us)

    for spans in threads.values():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []
        for ts, dur, layer in spans:
            while stack and stack[-1][0] <= ts:
                close(stack.pop())
            if stack:
                stack[-1][2] += min(ts + dur, stack[-1][0]) - ts
            stack.append([ts + dur, layer, 0.0, dur])
        while stack:
            close(stack.pop())
    return {m: us / 1000.0 / units for m, us in total_us.items()}


def run_perfbench(directory, args, processes):
    """Runs perfbench `processes` times, splitting the budget between them,
    and merges their documents: each metric is the mean of the processes'
    values, counts and checks add up."""
    deadline = time.monotonic() + RUN_ALLOWANCE_S
    docs = []
    for k in range(processes):
        out_dir = os.path.join(directory, "runs",
                               f"{args.workload}-{args.seed}-{args.trace}-{k}")
        os.makedirs(out_dir, exist_ok=True)
        cmd = [os.path.join(directory, "perfbench"), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds / processes), "--trace", str(args.trace),
               "--out-dir", out_dir]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("perfbench timed out")
        if proc.returncode != 0:
            fail(f"perfbench exited with status {proc.returncode}")
        docs.append(json.loads(proc.stdout))
    if processes == 1:
        return docs[0]
    merged = dict(docs[0])
    merged["metrics"] = {}
    for name in sorted({n for d in docs for n in d["metrics"]}):
        values = [d["metrics"][name] for d in docs if name in d["metrics"]]
        merged["metrics"][name] = {
            "value": sum(v["value"] for v in values) / len(values),
            "unit": values[0]["unit"],
            "samples": sum(v["samples"] for v in values)}
    merged["checks"] = [dict(c, name=f"process{k}.{c['name']}")
                        for k, d in enumerate(docs) for c in d["checks"]]
    merged["failures"] = [f"process{k}.{f}"
                          for k, d in enumerate(docs) for f in d["failures"]]
    merged["attempted"] = sum(d["attempted"] for d in docs)
    merged["failed"] = sum(d["failed"] for d in docs)
    merged["processes"] = processes
    return merged


def describe():
    print("modules:", " ".join(spec.MODULES))
    print("\nworkloads:")
    for name, why in spec.WORKLOADS:
        print(f"  {name}: {why}")
    print("\nend-to-end metrics (every workload):")
    for m in spec.END_TO_END:
        print(f"  {m['name']} [{m['unit']}, {m['better']}, bound "
              f"{m['bound']}]: {m['meaning']}")
    print("\nper-layer metrics -> the end-to-end metric each should move:")
    for name, unit, better, moves, where in spec.PER_LAYER:
        print(f"  {name} [{unit}, {better}] -> {moves}; {where}")


def fmt(value):
    return f"{value:.6g}" if abs(value) < 1e15 else repr(value)


def report(args, doc, metrics, checks, failures, wanted):
    build = doc["manifest"]["build"]
    resources = doc["manifest"]["resources"]
    print(f"== perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} ==")
    print("provenance:")
    print(f"  build {build['type']} ({build['flags']}), {build['compiler']}")
    print(f"  cxx flags: {doc['cxx_flags'].strip()}")
    print(f"  nproc {os.cpu_count()}, load budget {doc['budget']}, "
          f"workload seed {args.seed}, perfbench processes "
          f"{doc.get('processes', 1)}")
    print(f"  git {git_commit()}, source sha256 {source_digest()}")
    print(f"  perfbench wall {resources['wall_seconds']:.3f} s from "
          f"process start, cpu {resources['cpu_seconds']:.3f} s; "
          f"run.py wall {time.monotonic() - START:.3f} s from process start")
    print("metrics (value unit, n = samples; * = in the result line):")
    for name in sorted(metrics):
        m = metrics[name]
        mark = "*" if name in wanted else " "
        samples = "n/a on this workload" if m["samples"] == 0 else \
            f"n={m['samples']}"
        print(f" {mark} {name:42s} {fmt(m['value']):>14s} {m['unit']:6s} "
              f"{samples}")
    print("checks:")
    for name, ok in checks:
        print(f"  {'PASS' if ok else 'FAIL'} {name}")
    for failure in failures:
        print(f"  ! {failure}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-benchmark-json", action="store_true")
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args()

    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(spec.benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    if args.describe:
        describe()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    for rel in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            fail(f"{rel} is missing: run from a full checkout", 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    section = bench["per_layer" if args.trace else "end_to_end"]
    wanted = {m["name"]: m["unit"] for m in section}

    directory = build()
    processes = 1 if args.trace else spec.PROCESSES.get(args.workload, 1)
    doc = run_perfbench(directory, args, processes)

    metrics = doc["metrics"]
    checks = [(c["name"], c["ok"]) for c in doc["checks"]]
    failures = list(doc["failures"])
    if args.trace:
        try:
            units = doc["trace_units"]
            for module, ms in self_times_ms(doc["trace_file"], units).items():
                metrics[f"{module}.self_ms"] = {"value": ms, "unit": "ms",
                                                "samples": round(units, 3)}
            checks.append(("trace_loadable", True))
        except (OSError, ValueError, KeyError) as e:
            checks.append(("trace_loadable", False))
            failures.append(f"trace_loadable: {e}")
    for name, unit in wanted.items():
        if name not in metrics:
            if not args.trace:
                fail(f"end-to-end metric {name} was not measured")
            metrics[name] = {"value": 0.0, "unit": unit, "samples": 0}
        elif metrics[name]["unit"] != unit:
            fail(f"{name} measured in {metrics[name]['unit']}, "
                 f"BENCHMARK.json says {unit}")

    report(args, doc, metrics, checks, failures, wanted)
    correct = all(ok for _, ok in checks)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(doc["attempted"])),
        "failed": int(doc["failed"]),
        "metrics": {n: {"value": float(metrics[n]["value"]), "unit": u}
                    for n, u in wanted.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
