#!/usr/bin/env python3
"""Build and run one asicpp benchmark workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first run configures and builds perfbench/ (the asicpp libraries plus
the workload driver) into .bench_build/perfbench. Each run works in a
private directory under .bench_run/ that is removed when it ends; a traced
run leaves its Chrome trace in .bench_run/traces/.

The driver prints one "metric <name> <value> <unit>" line per measurement
and one "check pass|FAIL <what>" line per oracle check; this script
forwards them, validates the trace file of a traced run independently of
the driver, and prints as its last line one JSON object holding exactly the
metrics BENCHMARK.json names: the end_to_end ones with --trace 0, the
per_layer ones with --trace 1 (0 where a workload does not exercise that
layer).
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170.0  # a run must end within 180 s, not counting the build
TOLERANCE_US = 0.01  # per-span rounding of the trace file's %.3f times
# How far the thread roots may fall short of the traced wall time the
# driver measured around them (thread start-up, span hand-over at exit).
ROOT_SLACK, ROOT_SLACK_MS = 0.02, 2.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure (once) and build the driver; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            # Ninja's up-to-date check takes a tenth of make's, which every
            # run pays.
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"] + generator,
                stdout=sys.stderr, check=True, cwd=root)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", build_dir, "-j", jobs, "--target",
             "asicpp_perfbench", "perfbench_selftest"],
            stdout=sys.stderr, check=True, cwd=root)
    return os.path.join(build_dir, "asicpp_perfbench")


def self_times(events):
    """Self time (us) per layer and the thread-root figures of a trace.

    A span's self time is its duration minus its direct children's
    durations; the "bench" thread roots' self time is the remainder.
    """
    spans = {}
    for e in events:
        if e.get("ph") != "X":
            continue
        spans[e["args"]["id"]] = e
    child, nchild = {}, {}
    for e in spans.values():
        parent = e["args"]["parent"]
        if parent == 0:
            continue
        if parent not in spans:
            raise ValueError("span %r has no parent record" % e["name"])
        child[parent] = child.get(parent, 0.0) + e["dur"]
        nchild[parent] = nchild.get(parent, 0) + 1
    layers, wall, remainder, worst = {}, 0.0, 0.0, 0.0
    for sid, e in spans.items():
        self_us = e["dur"] - child.get(sid, 0.0)
        slack = TOLERANCE_US * (1 + nchild.get(sid, 0))
        worst = min(worst, self_us + slack)
        layers[e["cat"]] = layers.get(e["cat"], 0.0) + self_us
        if e["args"]["parent"] == 0:
            wall += e["dur"]
            remainder += self_us
    return layers, wall, remainder, worst


def check_trace(path, reported):
    """Problems found in a Chrome trace file; empty when it is sound.

    `reported` holds the driver's metrics ({name: value}); its self_ms.*
    and trace.remainder_ms must agree with the file, and the file's self
    times must sum to trace.wall_ms, which the driver measures on the
    steady clock around the traced interval (times the recording threads),
    not from the spans.
    """
    problems = []
    try:
        with open(path) as f:
            doc = json.load(f)
        events = doc["traceEvents"]
        layers, wall, remainder, worst = self_times(events)
    except (OSError, ValueError, KeyError, TypeError) as ex:
        return ["trace file %s unusable: %s" % (path, ex)]
    if not events:
        problems.append("trace file has no spans")
    if worst < 0.0:
        problems.append("a span's self time is negative")
    total_ms = sum(layers.values()) * 1e-3
    if "trace.wall_ms" not in reported:
        problems.append("the driver reported no trace.wall_ms")
    else:
        wall_ms = reported["trace.wall_ms"]
        if abs(total_ms - wall_ms) > ROOT_SLACK * wall_ms + ROOT_SLACK_MS:
            problems.append("self times sum to %.3f ms, the measured traced wall is %.3f ms"
                            % (total_ms, wall_ms))
    slack_ms = (TOLERANCE_US * len(events)) * 1e-3 + 1e-6 * wall * 1e-3
    for name, value in reported.items():
        if name.startswith("self_ms."):
            layer = name[len("self_ms."):]
            mine = layers.get(layer, 0.0) * 1e-3
        elif name == "trace.remainder_ms":
            mine = remainder * 1e-3
        else:
            continue
        if abs(mine - value) > slack_ms:
            problems.append("%s: driver says %.6f ms, trace file gives %.6f ms"
                            % (name, value, mine))
    return problems


def parse_output(text):
    """The driver's final JSON object (last non-empty line)."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise ValueError("driver printed nothing")
    return json.loads(lines[-1]), lines[:-1]


def select_metrics(result, spec, trace):
    """The metrics BENCHMARK.json names for this mode, in its units."""
    have = result["metrics"]
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        if name in have:
            if have[name]["unit"] != unit:
                raise ValueError("%s: driver unit %s, BENCHMARK.json unit %s"
                                 % (name, have[name]["unit"], unit))
            out[name] = {"value": have[name]["value"], "unit": unit}
        elif trace:
            out[name] = {"value": 0.0, "unit": unit}  # layer not exercised
        else:
            raise ValueError("driver did not report end-to-end metric " + name)
    return out


def selftest(root):
    binary = build(root, os.path.join(root, ".bench_build", "perfbench"))
    rc = subprocess.run([os.path.join(os.path.dirname(binary), "perfbench_selftest")]).returncode
    rc |= subprocess.run([sys.executable, os.path.join(HERE, "test_run.py")]).returncode
    return rc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        log("run.py: no asicpp sources under %s/src; run from the repository root" % root)
        return 2
    if args.selftest:
        return selftest(root)
    if not args.workload:
        log("run.py: --workload is required")
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("run.py: unknown workload %r" % args.workload)
        return 2

    try:
        binary = build(root, os.path.join(root, ".bench_build", "perfbench"))
    except (subprocess.CalledProcessError, OSError) as ex:
        log("run.py: build failed: %s" % ex)
        return 1
    started = time.monotonic()

    run_root = os.path.join(root, ".bench_run")
    work = os.path.join(run_root, "%s-%d" % (args.workload, os.getpid()))
    traces = os.path.join(run_root, "traces")
    trace_out = os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(work, "tmp"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", root, "--work", work, "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out" % args.workload)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        log("run.py: driver exited with %d" % proc.returncode)
        return 1

    try:
        result, lines = parse_output(proc.stdout)
        for line in lines:
            print(line)
        correct = bool(result["correct"])
        if args.trace:
            reported = {k: v["value"] for k, v in result["metrics"].items()}
            problems = check_trace(trace_out, reported)
            for p in problems:
                print("check FAIL " + p)
            if not problems:
                print("check pass trace file parses; self times >= 0 and sum with "
                      "the remainder to the traced wall time")
            correct = correct and not problems
        metrics = select_metrics(result, spec, bool(args.trace))
    except (ValueError, KeyError) as ex:
        log("run.py: bad driver output: %s" % ex)
        return 1
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
