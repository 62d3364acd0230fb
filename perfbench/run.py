#!/usr/bin/env python3
"""The repository's benchmark: one command, one workload per call.

    python3 perfbench/run.py --workload paper800|steady256|scarce64 \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It builds perfbench_driver (and the
program's libraries from src/) under .bench_build/, runs the workload in
one process with an explicit thread count, checks the outputs, and prints
as its last stdout line one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 reports the per-layer metrics.  See README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

WORKLOADS = ("paper800", "steady256", "scarce64")
MAX_THREADS = 4
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- statistics -----------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples, pct):
    """Nearest-rank percentile, or None when fewer than ten samples lie
    beyond it (the rule for reporting a tail)."""
    n = len(samples)
    if n == 0:
        return None
    rank = -(-pct * n // 100)  # ceil(pct * n / 100), exact in integers
    rank = max(1, min(n, rank))
    if n - rank < TAIL_SAMPLES_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def p95_or_max(samples):
    """(value, how): the 95th percentile under the ten-beyond rule, else the
    largest sample, which bounds it from above."""
    value = tail_percentile(samples, 95)
    if value is not None:
        return value, "p95"
    return (max(samples) if samples else 0.0), "max"


def rejection_rate(rejected, attempted):
    """Refused over attempted, with its base as a string."""
    if attempted <= 0:
        raise BenchError("rejection rate has no base: 0 attempted")
    if not 0 <= rejected <= attempted:
        raise BenchError(f"rejected {rejected} outside [0, {attempted}]")
    return rejected / attempted, f"{rejected}/{attempted}"


def ratio(numerator, base):
    return (numerator / base if base else 0.0), f"{numerator}/{base}"


# --- metric names and output ---------------------------------------------

def validate_name(name):
    if not NAME_RE.match(name):
        raise BenchError(f"invalid metric name {name!r}")
    return name


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            validate_name(metric["name"])
            if not UNIT_RE.match(metric["unit"]):
                raise BenchError(f"invalid unit {metric['unit']!r}")
    return spec


def check_metric_set(metrics, declared):
    """Every declared metric, with its declared unit, and nothing else."""
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise BenchError(f"metric set mismatch: missing {missing}, "
                         f"extra {extra}, unit differs {units}")


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def parse_result_line(text):
    """Inverse of result_line, applied to a whole stdout: the last line."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BenchError("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"unexpected keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise BenchError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise BenchError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise BenchError("attempted < 1")
    for name, metric in result["metrics"].items():
        validate_name(name)
        if set(metric) != {"value", "unit"}:
            raise BenchError(f"metric {name} keys {sorted(metric)}")
        if not isinstance(metric["value"], (int, float)):
            raise BenchError(f"metric {name} value is not a number")
    return result


# --- metrics from perfbench_driver's raw report ---------------------------

def end_to_end(report, notes):
    p = report["passes"]["untraced"]
    quality = p["quality"]
    windows = p["window_s"]
    # Windows with no live VM make no allocate() call.
    allocates = [a for a in p["allocate_s"] if a > 0.0]
    p95, how = p95_or_max(windows)
    notes.append(f"window_s_p95 = {how} of {len(windows)} window samples")
    notes.append(f"allocate_s_p50 over {len(allocates)} allocate() calls")
    rate, base = rejection_rate(quality["rejected"], quality["attempted"])
    notes.append(f"rejection_rate = {base} = {rate:.6f}")
    cost = quality["cost"] / quality["accepted"]
    notes.append(f"provider_cost_per_vm = {quality['cost']:.6f} / "
                 f"{quality['accepted']} accepted (VM-windows on the sims)")
    return {
        "allocate_s_p50": (median(allocates), "s"),
        "window_s_p50": (median(windows), "s"),
        "window_s_p95": (p95, "s"),
        "windows_per_s": (len(windows) / p["seconds"], "1/s"),
        "acceptance_rate": (1.0 - rate, "ratio"),
        "provider_cost_per_vm": (cost, "cost/vm"),
        "honest_welfare": (quality["honest_welfare"], "ratio"),
        "setup_s": (median(report["setup_s"]), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def per_layer(report, notes):
    untraced = report["passes"]["untraced"]
    p = report["passes"]["traced"]
    counts = p["counts"]
    cpu = p["cpu_s"]
    io = p["io"]

    unrepairable, base = ratio(counts["unrepairable"], counts["repair_walks"])
    notes.append(f"tabu.unrepairable_ratio = {base}")
    readmit, base = ratio(counts["rebalance_placements"],
                          counts["shard_prerejections"])
    notes.append(f"algo.shard_readmit_ratio = {base}")
    imbalance, base = ratio(counts["max_shard_vms"], counts["min_shard_vms"])
    notes.append(f"algo.shard_imbalance = {base} (largest/smallest shard "
                 "slice, VMs summed over windows)")
    moves = counts["moves_tried"]
    us_per_move = cpu["repair"] / moves * 1e6 if moves else 0.0
    notes.append(f"tabu.us_per_move = {cpu['repair']:.6f} s / {moves} moves")
    notes.append("tabu.moves_accepted counts relocate_group members, so it "
                 "may exceed tabu.moves_tried; no ratio is derived")
    notes.append(f"per-layer counts and CPU seconds are per pass over "
                 f"{p['sub_seeds']} sub-seeds")
    allocates = [a for a in p["allocate_s"] if a > 0.0]
    traced_p50 = median(p["window_s"])
    untraced_p50 = median(untraced["window_s"])
    notes.append(f"trace.overhead_s = traced {traced_p50:.6f} - untraced "
                 f"{untraced_p50:.6f} s (window p50)")
    return {
        "tabu.setup_s": (median(p["tabu_ctor_s"]), "s"),
        "tabu.repair_cpu_s": (cpu["repair"], "s"),
        "tabu.repair_walks": (counts["repair_walks"], "count"),
        "tabu.unrepairable_ratio": (unrepairable, "ratio"),
        "tabu.moves_tried": (moves, "count"),
        "tabu.moves_accepted": (counts["moves_accepted"], "count"),
        "tabu.us_per_move": (us_per_move, "us"),
        "ea.evaluate_cpu_s": (cpu["evaluate"], "s"),
        "ea.variation_cpu_s": (cpu["variation"], "s"),
        "ea.selection_cpu_s": (cpu["selection"], "s"),
        "ea.tournament_cpu_s": (cpu["tournament"], "s"),
        "ea.evaluations": (counts["evaluations"], "count"),
        "model.full_rebuilds": (counts["full_rebuilds"], "count"),
        "model.delta_moves": (counts["delta_moves"], "count"),
        "model.rebases": (counts["rebases"], "count"),
        "algo.allocate_s_p50": (median(allocates), "s"),
        "algo.allocate_setup_s": (median(p["allocate_setup_s"]), "s"),
        "algo.shard_prerejections": (counts["shard_prerejections"], "count"),
        "algo.rebalance_placements":
            (counts["rebalance_placements"], "count"),
        "algo.shard_readmit_ratio": (readmit, "ratio"),
        "algo.shard_imbalance": (imbalance, "ratio"),
        "sim.window_overhead_s": (median(p["overhead_s"]), "s"),
        "sim.retries": (counts["retries"], "count"),
        "sim.evictions": (counts["evictions"], "count"),
        "sim.admission_deferrals": (counts["admission_deferrals"], "count"),
        "workload.generate_s": (median(report["generate_s"]), "s"),
        "io.trace_append_s": (io["append_s"], "s"),
        "io.trace_bytes_json": (io["json_bytes"], "bytes"),
        "io.trace_bytes_binary": (io["binary_bytes"], "bytes"),
        "io.trace_peak_buffer_bytes": (io["peak_buffer_bytes"], "bytes"),
        "trace.overhead_s": (traced_p50 - untraced_p50, "s"),
    }


def build_metrics(report, trace, notes):
    raw = per_layer(report, notes) if trace else end_to_end(report, notes)
    return {validate_name(name): {"value": value, "unit": unit}
            for name, (value, unit) in raw.items()}


# --- build and run ---------------------------------------------------------

def run_quiet(cmd, timeout):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError(f"{' '.join(cmd[:3])} ... failed "
                         f"({proc.returncode})")


def build(jobs):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("src/ not found: run from the root of a checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                   "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"], 300)
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", str(jobs)], 840)


def source_ids():
    """git sha when the checkout is a repository, and a digest of src/
    either way, so results can be matched to the code that made them."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=False).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def run_driver(workload, seed, seconds, trace, threads):
    out_dir = os.path.join(OUT_DIR, str(os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [DRIVER, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--threads", str(threads), "--out-dir", out_dir],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
            check=False)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"perfbench_driver exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("perfbench_driver printed no report")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        spec = load_spec()
        threads = max(1, min(MAX_THREADS, os.cpu_count() or 1))
        build(threads)
        sha, digest = source_ids()
        report = run_driver(args.workload, args.seed, args.seconds,
                            args.trace, threads)
        notes = []
        metrics = build_metrics(report, args.trace == 1, notes)
        check_metric_set(metrics, spec["per_layer" if args.trace
                                        else "end_to_end"])
    except (BenchError, OSError, subprocess.TimeoutExpired, KeyError,
            ValueError) as e:
        log(f"perfbench: {e}")
        return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"seconds {args.seconds}")
    print(f"hardware_threads {report['hardware_threads']} threads "
          f"{report['threads']} git_sha {sha} src_digest {digest}")
    for name, p in report["passes"].items():
        print(f"fingerprint {name} {p['fingerprint']} ({p['units']} units "
              f"over {p['sub_seeds']} sub-seeds)")
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    for failure in report["failures"]:
        print(f"CHECK FAILED: {failure}")
    correct = not report["failures"]
    print(result_line(correct, report["attempted"], report["failed"],
                      metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
