#!/usr/bin/env python3
"""Run one workload of the FZModules benchmark and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds the `fzmod` CLI and the
harness (perfbench/harness) from the repository's sources with CMake into
$CARGO_TARGET_DIR (default .bench_build), generates the workload's inputs
from the seed in a separate process, runs the measurement with a clean
FZMOD_* environment, checks the report and prints:

  * a provenance line (git revision, source digest, host fingerprint, seed,
    pinned environment, the workload's constants and sample counts);
  * with --trace 1, the layer-attribution report;
  * last, the result: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1, its per_layer list. Every op failure is printed to stderr with
its op and reason and counted. A run whose report is not a valid
measurement (a percentile with fewer than 10 samples beyond it, a metric
the workload does not define, a missing metric) exits non-zero without a
result line. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli-oneshot", "serve-mixed", "stream-archive")
RUN_TIMEOUT_S = 170

# Subsystem metrics each workload's traced run reports in its layer report
# (they exist only where the workload uses the subsystem).
WORKLOAD_LAYERS = {
    "cli-oneshot": ["cli.process_floor_ms", "data.read_gbps", "data.write_gbps"],
    "serve-mixed": [
        "serve.queue_p50_ms", "serve.queue_p90_ms", "serve.exec_p50_ms",
        "serve.exec_p90_ms", "serve.batched_pct", "serve.rejected",
        "serve.request_p99_ms", "serve.gen_late_p99_ms", "serve.spec_requests",
    ],
    "stream-archive": [
        "core.stream_workers", "core.stream_read_stalls",
        "core.stream_write_stalls", "core.stream_peak_mb",
        "core.reader_hit_pct", "core.prefetch_used_pct", "core.reader_miss_us",
        "core.reader_reads", "core.reader_evictions",
    ],
}

# The only FZMOD_* setting the benchmark fixes. The kernel tier is pinned
# through the environment (both tiers write identical bytes; the one-time
# auto probe does not always pick the same one). FZMOD_VERIFY stays unset,
# which leaves digest verification on.
PINNED_ENV = {"FZMOD_KERNEL_TIER": "vector"}


class InvalidRun(Exception):
    """The run is not a valid measurement; no result line is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(d if os.path.isabs(d) else os.path.join(ROOT, d), "perfbench")


def build():
    """Configure once, then build the CLI and the harness; return their paths."""
    for need in ("src/CMakeLists.txt", "src/fzmod", "tools/fzmod_cli.cc"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise InvalidRun(f"the program's sources are missing ({need}); "
                             "run from a full checkout")
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "perfbench", "fzmod_cli"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise InvalidRun(f"build step failed: {' '.join(cmd)}")
    return os.path.join(bdir, "perfbench"), os.path.join(bdir, "fzmod")


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("FZMOD_")}
    cleared = sorted(k for k in os.environ if k.startswith("FZMOD_"))
    env.update(PINNED_ENV)
    return env, cleared


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def source_digest():
    """sha256 over the program's sources: identifies the build without git."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(files):
                p = os.path.join(dirpath, name)
                if name.endswith((".pyc",)):
                    continue
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def host_fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    llc = "unknown"
    cache = "/sys/devices/system/cpu/cpu0/cache"
    try:
        idx = sorted(d for d in os.listdir(cache) if d.startswith("index"))
        with open(os.path.join(cache, idx[-1], "size")) as f:
            llc = f.read().strip()
    except (OSError, IndexError):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "llc": llc}


def filesystem_of(path):
    """The mount type holding the run directory (the stream workload
    fsyncs its archive, so disk vs tmpfs matters)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) > 2 and path.startswith(parts[1]) and len(parts[1]) > len(best):
                    best, fstype = parts[1], parts[2]
    except OSError:
        pass
    return fstype


def validate(rep, trace, bench):
    """Check a harness report; raise InvalidRun when it is not a valid
    measurement. Returns the metrics for the result line."""
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    metrics = rep.get("metrics", {})
    problems = list(rep.get("violations", []))
    for name in metrics:
        if name not in units:
            problems.append(f"{name}: the workload emits a metric its ops do not define")
    for name, unit in units.items():
        m = metrics.get(name)
        if m is None:
            problems.append(f"{name}: missing")
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r} is not a finite number")
    for name, s in rep.get("samples", {}).items():
        if s.get("beyond", 0) < 10:
            problems.append(f"{name}: only {s.get('beyond')} samples beyond the percentile")
    if trace:
        own = rep.get("layers", {}).get("workload_layers", {})
        want = set(WORKLOAD_LAYERS[rep["workload"]])
        for name in own:
            if name not in want:
                problems.append(f"{name}: the workload emits a layer metric its ops do not define")
        for name in want - set(own):
            problems.append(f"{name}: missing from the layer report")
    if rep.get("attempted", 0) < 1:
        problems.append("no op was attempted")
    if problems:
        raise InvalidRun("; ".join(problems))
    return {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]} for n in units}


def run(args):
    bench = load_benchmark()
    harness, fzmod = build()
    env, cleared = clean_env()
    run_dir = os.path.join(ROOT, ".perfbench_run",
                           f"{args.workload}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--dir", run_dir]
        r = subprocess.run([harness, "prepare"] + common, env=env,
                           stdout=sys.stderr, stderr=sys.stderr,
                           timeout=RUN_TIMEOUT_S)
        if r.returncode != 0:
            raise InvalidRun("input generation failed")
        r = subprocess.run([harness, "run"] + common +
                           ["--seconds", str(args.seconds),
                            "--trace", str(args.trace), "--fzmod", fzmod],
                           env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
        if r.returncode != 0:
            raise InvalidRun(f"the harness exited with status {r.returncode}")
        lines = [l for l in r.stdout.splitlines() if l.strip()]
        if not lines:
            raise InvalidRun("the harness printed no report")
        rep = json.loads(lines[-1])
        fstype = filesystem_of(run_dir)
    except subprocess.TimeoutExpired:
        raise InvalidRun(f"the run took longer than {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for f in rep.get("failures", []):
        log(f"FAILED {f}")
    if rep.get("failed", 0) > len(rep.get("failures", [])):
        log(f"... {rep['failed'] - len(rep['failures'])} more failures")
    metrics = validate(rep, args.trace == 1, bench)

    provenance = {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "host": host_fingerprint(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env_pinned": dict(PINNED_ENV, FZMOD_VERIFY="unset (verification on)"),
        "env_cleared": cleared,
        "run_dir_fs": fstype,
        "constants": rep.get("constants", {}),
        "fixed_op_set": rep.get("fixed", {}),
        "samples": rep.get("samples", {}),
    }
    print(json.dumps({"provenance": provenance}))
    if args.trace == 1:
        print(json.dumps({"layers": rep.get("layers", {})}))
    attempted, failed = int(rep["attempted"]), int(rep["failed"])
    print(json.dumps({"correct": failed == 0 and attempted >= 1,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    try:
        run(args)
    except InvalidRun as e:
        log(f"perfbench: invalid run: {e}")
        sys.exit(1)


if __name__ == "__main__":
    main()
