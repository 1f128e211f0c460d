#!/usr/bin/env python3
"""The repository benchmark: train -> publish -> serve, measured end to end
and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --write-benchmark-json

The first form builds the C++ benchmark binary (perfbench/CMakeLists.txt, into
$CARGO_TARGET_DIR or .bench_build), runs one workload and prints, as its
last stdout line, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. The line before it carries the host and run facts.
--all runs every workload untraced and traced and prints every metric by
name with its unit. --selftest injects a fixed delay into one training
stage and checks that only that stage's row and throughput move.
--write-benchmark-json regenerates BENCHMARK.json from the tables below,
which are the single definition of workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_SECONDS = 30
RUN_TIMEOUT_S = 170

WORKLOADS = [
    {"name": "train_paper",
     "why": "Algorithm 1 at paper defaults on the paper-sized city read "
            "through the mmap PLPD store with 2 threads: local SGNS updates "
            "and the data plane dominate a step."},
    {"name": "serve_read_only",
     "why": "fp16+IVF tier (L=20k, d=64), 2 shards, no publish during "
            "traffic, small in-RAM training city: the request path, with "
            "the PLPD store bypassed."},
]

# (name, unit, better, bound). Bounds are wide because run-to-run noise on
# a shared 4-core VM is wide; NOTES.md records the measured spreads and why
# HR@10 and the serving and publishing timings are per-layer rows, not gates.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.25),
    ("train_steps_per_s", "1/s", "higher", 0.25),
    ("epsilon", "eps", "lower", 0.01),
    ("serve_ok_frac", "frac", "higher", 0.05),
]

PER_LAYER = [
    ("sgns.local_update_s", "s", "lower"),
    ("sgns.local_update_ms_per_bucket", "ms", "lower"),
    ("pipeline.fanout_wall_s", "s", "lower"),
    ("pipeline.fanout_busy_frac", "frac", "higher"),
    ("pipeline.reduce_s", "s", "lower"),
    ("pipeline.noise_s", "s", "lower"),
    ("pipeline.noise_ns_per_coord", "ns", "lower"),
    ("optim.apply_s", "s", "lower"),
    ("optim.apply_ns_per_param", "ns", "lower"),
    ("pipeline.engine_other_s", "s", "lower"),
    ("pipeline.step_wall_s", "s", "lower"),
    ("pipeline.step_coverage_frac", "frac", "higher"),
    ("data.read_s", "s", "lower"),
    ("data.tokens_read", "count", "lower"),
    ("core.sample_s", "s", "lower"),
    ("core.group_s", "s", "lower"),
    ("core.users_per_step", "count", "lower"),
    ("core.buckets_per_step", "count", "lower"),
    ("pipeline.delta_entries_per_step", "count", "lower"),
    ("privacy.track_round_us", "us", "lower"),
    ("sgns.clip_s", "s", "lower"),
    ("sgns.clip_engaged_frac", "frac", "lower"),
    ("serve.session_us", "us", "lower"),
    ("serve.profile_us", "us", "lower"),
    ("serve.scan_select_us", "us", "lower"),
    ("serve.candidates_per_query", "count", "lower"),
    ("serve.recall10", "frac", "higher"),
    ("serve.exact_scan_us", "us", "lower"),
    ("serve.served_recall10", "frac", "higher"),
    ("hr10", "frac", "higher"),
    ("publish_cycle_ms", "ms", "lower"),
    ("serve_request_us", "us", "lower"),
    ("serve_capacity_qps", "1/s", "higher"),
    ("serve_p50_us", "us", "lower"),
    ("serve_p90_us", "us", "lower"),
    ("serve_p99_us", "us", "lower"),
    ("serve.sent", "count", "higher"),
    ("serve.ok", "count", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.errors", "count", "lower"),
    ("serve.backlog_grew", "count", "lower"),
    ("loadgen.late_us_p50", "us", "lower"),
    ("loadgen.late_us_p99", "us", "lower"),
    ("serve.swap_us", "us", "lower"),
    ("publish.snapshot_build_ms", "ms", "lower"),
    ("publish.recall_gate_ms", "ms", "lower"),
    ("publish.ledger_append_ms", "ms", "lower"),
    ("publish.publish_ms", "ms", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
]


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [dict(w) for w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def child_env():
    """The environment for the build and the benchmark binary: temporary files (the
    compiler's included) stay inside the build tree."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no library sources at %s/src; the benchmark "
                           "builds the program from the checkout" % ROOT)
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=child_env())
    subprocess.run(["cmake", "--build", out, "--target", "plp_perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, env=child_env())
    return os.path.join(out, "plp_perfbench")


def run_binary(binary, extra_args):
    """Runs the benchmark binary in a fresh scratch directory inside the checkout and
    returns its stdout lines."""
    run_dir = os.path.join(ROOT, ".bench_run", str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        proc = subprocess.run([binary, "--dir", run_dir] + extra_args,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=child_env())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise RuntimeError("benchmark binary exited with code %d" % proc.returncode)
    return proc.stdout.splitlines()


def run_workload(binary, workload, seed, seconds, trace):
    lines = run_binary(binary, ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(seconds),
                                "--trace", "1" if trace else "0"])
    return json.loads(lines[-1])


def result_line(result, trace):
    """Selects the metrics the trace mode reports and checks each is there
    with its declared unit."""
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    for spec in wanted:
        name, unit = spec[0], spec[1]
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            raise RuntimeError("metric %s missing or not in %s" % (name, unit))
        metrics[name] = {"value": got["value"], "unit": unit}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def facts(result):
    return {k: v for k, v in result.items()
            if k not in ("correct", "attempted", "failed", "metrics")}


def print_table(result, trace):
    line = result_line(result, trace)
    for name, metric in line["metrics"].items():
        print("  %-34s %16.6g %s" % (name, metric["value"], metric["unit"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args()

    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as out:
            json.dump(benchmark_json(), out, indent=2)
            out.write("\n")
        return 0

    try:
        binary = build()
        if args.selftest:
            for line in run_binary(binary, ["--selftest", "--seed",
                                            str(args.seed)]):
                print(line)
            return 0
        if args.all:
            ok = True
            for workload in WORKLOADS:
                for trace in (0, 1):
                    result = run_workload(binary, workload["name"], args.seed,
                                          args.seconds, trace)
                    ok = ok and result["correct"]
                    print("%s (trace %d): correct=%s attempted=%d failed=%d"
                          % (workload["name"], trace, result["correct"],
                             result["attempted"], result["failed"]))
                    print_table(result, trace)
            print(json.dumps(facts(result)))
            return 0 if ok else 1
        names = [w["name"] for w in WORKLOADS]
        if args.workload not in names:
            raise RuntimeError("--workload must be one of %s" % names)
        result = run_workload(binary, args.workload, args.seed, args.seconds,
                              args.trace)
        print(json.dumps(facts(result)))
        print(json.dumps(result_line(result, args.trace)))
        return 0
    except (RuntimeError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired, OSError, ValueError) as error:
        log("perfbench: %s" % error)
        return 1


if __name__ == "__main__":
    sys.exit(main())
