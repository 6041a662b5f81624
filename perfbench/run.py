#!/usr/bin/env python3
"""Real-plane benchmark for NVMe-oAF: loopback target host + load generator.

One run:
    python3 perfbench/run.py --workload qd1-4k-shm --seed 1 --seconds 10 --trace 0

builds the benchmark (first run only, into .bench_build/), runs one
workload and prints every metric by name with its unit and sample count,
then, as the last line, one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, measured
untraced; with --trace 1 they are its per_layer list, from a traced run
(plus a shorter untraced run of the same seed for trace.overhead_frac).

Every workload, with the oAF/TCP ratio report:
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Full results (environment, sample counts, guards) are kept under
.bench_out/. README.md maps each metric to its layer and workload.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(traced=True):
    """Build `pb`, and `pb_traced` when asked: an untraced run does not
    depend on the layer wrappers compiling."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("NVMe-oAF sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("cmake configure failed (see %s)" % log_path)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        targets = ["pb", "pb_traced"] if traced else ["pb"]
        cmd = ["cmake", "--build", BUILD, "--target"] + targets + ["-j", jobs]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
            fail("build failed (see %s)" % log_path)


def run_pb(workload, seed, seconds, traced):
    """One load-generator run; returns (exit code, parsed result or None)."""
    exe = os.path.join(BUILD, "pb_traced" if traced else "pb")
    cmd = [exe, "load", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % " ".join(cmd))
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def show(name, value, unit, samples=None):
    n = "" if samples is None else "  (n=%d)" % samples
    print("  %-32s %16.6f %-8s%s" % (name, value, unit, n))


def one(workload, seed, seconds, trace):
    bench = spec()
    # With --trace 1 the untraced run only anchors trace.overhead_frac, so a
    # quarter of the window is enough for its read_p50_us.
    rc, res = run_pb(workload, seed, max(2.0, seconds / 4) if trace else seconds,
                     traced=False)
    if res is None:
        fail("run of %s produced no result (exit %d)" % (workload, rc))
    e2e = res["metrics"]
    print("%s seed=%d %s cpus tgt=%s load=%s build=%s (%s)%s" % (
        workload, seed, res["guard"]["data_path"], res["env"]["target_cpus"],
        res["env"]["load_cpus"], res["env"]["build_type"], res["env"]["network"],
        ", untraced reference run of %gs" % res["window_s"] if trace else ""))
    for name, m in e2e.items():
        show(name, m["value"], m["unit"], m["samples"])
    record = {"untraced": res}
    correct = rc == 0 and res["correct"]
    attempted, failed = res["attempted"], res["failed"]
    if trace:
        rc_t, traced = run_pb(workload, seed, seconds, traced=True)
        if traced is None:
            fail("traced run of %s produced no result (exit %d)" % (workload, rc_t))
        layers = dict(traced["layers"])
        base = e2e["read_p50_us"]["value"]
        layers["trace.overhead_frac"] = (
            traced["metrics"]["read_p50_us"]["value"] / base - 1.0 if base > 0 else 0.0)
        record["traced"] = traced
        correct = correct and rc_t == 0 and traced["correct"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        print("  per layer (traced run):")
        for name in sorted(layers):
            show(name, layers[name], "")
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]]["value"], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "result_%s_seed%d_trace%d.json" % (
            workload, seed, 1 if trace else 0)), "w") as f:
        json.dump(record, f, indent=1)
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": metrics}, record


def report(seed, seconds):
    """All workloads, untraced and traced, plus the paper-ratio report."""
    names = [w["name"] for w in spec()["workloads"]]
    out, e2e, layers = {}, {}, {}
    for w in names:
        out[w], rec = one(w, seed, seconds, trace=False)
        e2e[w] = rec["untraced"]["metrics"]
        out[w + "/trace"], rec = one(w, seed, seconds, trace=True)
        layers[w] = rec["traced"]["layers"]
        print()
    if "qd32-128k-shm" in e2e and "qd32-128k-tcp" in e2e:
        shm, tcp = "qd32-128k-shm", "qd32-128k-tcp"
        # Not gated: a ratio would punish a speed-up of either path.
        print("paper ratios (oAF shm / NVMe-TCP, qd32-128k, Figs 11/12 counterpart):")
        for m in ("read_mib_s", "write_mib_s"):
            a, b = e2e[shm][m]["value"], e2e[tcp][m]["value"]
            print("  %-24s %8.3f  (%.1f / %.1f)" % (m, a / b if b else 0.0, a, b))
        a = layers[shm]["pdu.msgs_per_write"]
        b = layers[tcp]["pdu.msgs_per_write"]
        print("  %-24s %8.3f vs %.3f PDUs (paper 4.4.2: 2 vs 4)" % (
            "pdu.msgs_per_write", a, b))
    ok = all(v["correct"] for v in out.values())
    print(json.dumps({"correct": ok,
                      "attempted": sum(v["attempted"] for v in out.values()),
                      "failed": sum(v["failed"] for v in out.values()),
                      "metrics": {"%s/%s" % (w, k): v for w in out
                                  for k, v in out[w]["metrics"].items()}}))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bench = spec()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %s (have: %s)" % (args.workload, ", ".join(names)))
    if seconds <= 0:
        fail("--seconds must be positive")
    build(traced=args.workload == "all" or args.trace == 1)
    if args.workload == "all":
        sys.exit(0 if report(args.seed, seconds) else 1)
    result, _ = one(args.workload, args.seed, seconds, args.trace == 1)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
