#!/usr/bin/env python3
"""End-to-end DpTrainer benchmark (see README.md next to this file).

Run from the repository root:

  python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
                          [--out RESULT.json]
  python3 e2ebench/run.py compare BASE.json NEW.json

The first form builds the runner from source into .bench_build/, runs the
workload in a child process, checks its outputs and prints every metric of
BENCHMARK.json's end_to_end list (--trace 0) or per_layer list (--trace 1).
The last line of stdout is the result as one JSON object. --out also saves
the result with its host and build stamp; compare refuses two saved results
whose stamps name different hosts or builds.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK_DIR = os.path.join(ROOT, ".bench_build", f"work-{os.getpid()}")
# Compiler and runner temporary files stay inside the checkout too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
RUNNER = os.path.join(BUILD_DIR, "e2e_runner")
CHILD_ENV = dict(os.environ, TMPDIR=TMP_DIR)
BUILD_TYPE = "Release"
CHILD_TIMEOUT_S = 170

# The trainer's own profiler phases reported next to the outside-timed
# layers (a phase a workload never enters reads 0).
PROFILE_PHASES = ("step", "step.forward_backward", "step.clip_accumulate",
                  "step.ghost_forward_backward", "step.ghost_accumulate",
                  "perturb.dp", "perturb.geodp", "spherical.to_spherical",
                  "spherical.to_cartesian", "step.optimizer_apply",
                  "step.checkpoint")
# Percentile of the per-call wall times behind samples_per_s and setup_s.
GATED_PERCENTILE = 90.0
# Stamp fields that must match before two results may be compared.
HOST_KEYS = ("nproc", "cpu_model", "simd", "pool_threads", "build_type")


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


# -- build -------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to the benchmark")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in f.read():
                shutil.rmtree(BUILD_DIR)  # configured from another checkout
    os.makedirs(TMP_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                ["cmake", "--build", BUILD_DIR, "--target", "e2e_runner",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=CHILD_ENV).returncode:
            fail("build failed: " + " ".join(cmd))


# -- host and build stamp ----------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git(*args):
    out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                         text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the library and benchmark sources, so a result names the
    code it measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def stamp(raw):
    rev = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "simd": raw["simd"],
        "pool_threads": raw["threads"],
        "build_type": BUILD_TYPE,
        "git_rev": rev,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
    }


# -- metrics -----------------------------------------------------------------

def quantile(sorted_values, p):
    """Linear-interpolated p-th percentile (0 <= p <= 100)."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(sorted_values):
    """Highest percentile with at least ten samples beyond it, as
    (percentile, value); (None, 0.0) when there are too few samples."""
    n = len(sorted_values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if math.floor(n * (100.0 - p) / 100.0 + 1e-9) >= 10:
            return p, quantile(sorted_values, p)
    return None, 0.0


def end_to_end_metrics(raw):
    # Gated times are the 90th percentile of the calls in one process. On a
    # shared host a call runs either at the loaded host's speed or faster;
    # the loaded level shows up in nearly every run, so the 90th percentile
    # sits on it, where the median flips between levels from run to run.
    samples = raw["batch"] * raw["steps"]
    run_s = sorted(raw["run_s"])
    setup_s = sorted(raw["setup_s"])
    rates = [samples / s for s in raw["run_s"]]
    return {
        "samples_per_s": samples / quantile(run_s, GATED_PERCENTILE),
        "setup_s": quantile(setup_s, GATED_PERCENTILE),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "final_loss": raw["final_loss"],
        "test_accuracy": raw["test_accuracy"],
    }, [f"{len(rates)} closed-loop Run() calls of {raw['steps']} steps; "
        f"samples/s per run: " + " ".join(f"{r:.1f}" for r in rates),
        f"Run() wall s: p50 {quantile(run_s, 50.0):.4f}  "
        f"p{GATED_PERCENTILE:g} {quantile(run_s, GATED_PERCENTILE):.4f}; "
        f"set-up s ({len(setup_s)} calls): p50 {quantile(setup_s, 50.0):.5f}  "
        f"p{GATED_PERCENTILE:g} {quantile(setup_s, GATED_PERCENTILE):.5f}"]


def per_layer_metrics(raw):
    metrics, notes = {}, []
    replays = len(raw["replay_wall_s"])
    steps = raw["steps"] * replays
    wall_us = sum(raw["replay_wall_s"]) * 1e6
    for layer, spans_us in raw["layers"].items():
        durations = sorted(spans_us)
        total = sum(durations)
        pct, tail_us = tail(durations)
        metrics[f"{layer}.calls"] = len(durations) / replays
        metrics[f"{layer}.ms_per_step"] = total / steps / 1e3
        metrics[f"{layer}.p50_us"] = quantile(durations, 50.0)
        metrics[f"{layer}.tail_us"] = tail_us
        metrics[f"{layer}.share"] = total / wall_us
        where = f"p{pct:g}" if pct is not None else "none: <20 samples"
        notes.append(f"{layer:14s} share {total / wall_us:7.2%}  "
                     f"{total / steps / 1e3:9.4f} ms/step  "
                     f"p50 {quantile(durations, 50.0):10.1f} us  "
                     f"tail {tail_us:10.1f} us ({where}, n={len(durations)})")
    metrics["core.release_zero_fraction"] = raw["zero_fraction"]
    metrics["optim.grad.scaling"] = (raw["scaling_t1_us"] / raw["scaling_tn_us"]
                                     if raw["scaling_tn_us"] > 0 else 0.0)
    metrics["ckpt.save.bytes"] = raw["ckpt_save_bytes"]
    metrics["ckpt.save.failures"] = raw["ckpt_save_failures"]
    metrics["obs.telemetry.bytes"] = raw["telemetry_bytes"]
    metrics["obs.telemetry.dropped"] = raw["telemetry_dropped"]
    metrics["io.retries"] = raw["io_retries"]
    metrics["io.giveups"] = raw["io_giveups"]
    traced_ms = statistics.median(raw["replay_wall_s"]) * 1e3 / raw["steps"]
    untraced_ms = raw["run_wall_s"] * 1e3 / raw["steps"]
    metrics["trace.gap_ms_per_step"] = traced_ms - untraced_ms
    metrics["ckpt.files_after_run"] = raw["ckpt_files_after_run"]
    metrics["ckpt.bytes_after_run"] = raw["ckpt_bytes_after_run"]
    profile = raw["profile"]
    # [count, total_us, self_us] per phase, from the profiled Run().
    step_total = profile.get("step", [0, 0, 0])[1]
    metrics["profile.unattributed_share"] = (
        profile["step"][2] / step_total if step_total > 0 else 0.0)
    for phase in PROFILE_PHASES:
        self_us = profile.get(phase, [0, 0, 0])[2]
        metrics[f"profile.{phase}.self_ms_per_step"] = self_us / raw["steps"] / 1e3
    notes.append(f"{replays} traced replays; traced {traced_ms:.4f} ms/step, "
                 f"untraced Run() {untraced_ms:.4f} ms/step")
    notes.append("trainer profiler (self ms/step): " + ", ".join(
        f"{p} {metrics[f'profile.{p}.self_ms_per_step']:.4f}"
        for p in PROFILE_PHASES if p in profile))
    return metrics, notes


# -- commands ----------------------------------------------------------------

def run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    build()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    cmd = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--mode", "trace" if args.trace else "run", "--workdir", WORK_DIR]
    try:
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               env=CHILD_ENV, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    if child.returncode != 0 or not child.stdout.strip():
        fail(f"runner exited with code {child.returncode}")
    raw = json.loads(child.stdout.strip().splitlines()[-1])

    values, notes = (per_layer_metrics if args.trace else end_to_end_metrics)(raw)
    attempted = sum(a for a, _ in raw["checks"].values())
    failed = sum(f for _, f in raw["checks"].values())

    host = stamp(raw)
    print(f"e2ebench {args.workload} seed={args.seed} "
          f"{'traced replay' if args.trace else 'untraced'}")
    print("stamp: " + json.dumps(host, sort_keys=True))
    for note in notes:
        print("  " + note)
    print(f"  epsilon {raw['epsilon']} at delta=1e-5 (checked, not gated)")
    for name, (a, f) in sorted(raw["checks"].items()):
        print(f"  check {name}: {a - f}/{a} passed")

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if values.get(m["name"]) is None:
            fail(f"{m['name']} was not measured or is not finite")
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:40s} {value:16.6f} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"stamp": host, "workload": args.workload,
                       "seed": args.seed, "trace": args.trace,
                       "result": result}, f, indent=1, sort_keys=True)
    print(json.dumps(result))


def compare(args):
    spec = load_spec()
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    saved = []
    for path in (args.base, args.new):
        with open(path) as f:
            saved.append(json.load(f))
    base, new = saved
    for k in ("workload", "trace"):
        if base[k] != new[k]:
            fail(f"refusing to compare {k} {base[k]!r} with {new[k]!r}")
    mismatched = [k for k in HOST_KEYS if base["stamp"][k] != new["stamp"][k]]
    for k in mismatched:
        print(f"stamps differ in {k}: {base['stamp'][k]!r} vs "
              f"{new['stamp'][k]!r}", file=sys.stderr)
    if mismatched:
        fail("refusing to compare results from different hosts or builds")
    print(f"{base['workload']}: {base['stamp']['git_rev'] or base['stamp']['source_sha256'][:12]}"
          f" -> {new['stamp']['git_rev'] or new['stamp']['source_sha256'][:12]}")
    for name, b in base["result"]["metrics"].items():
        n = new["result"]["metrics"].get(name)
        if n is None:
            continue
        change = (n["value"] - b["value"]) / b["value"] if b["value"] else 0.0
        worse = -change if better.get(name) == "higher" else change
        verdict = ""
        if name in bounds:
            verdict = "REGRESSION" if worse > bounds[name] else "ok"
        print(f"  {name:40s} {b['value']:14.6f} -> {n['value']:14.6f} "
              f"{change:+8.2%} {verdict}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("new")
        compare(parser.parse_args(sys.argv[2:]))
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    run(args)


if __name__ == "__main__":
    main()
