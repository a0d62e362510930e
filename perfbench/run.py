#!/usr/bin/env python3
"""fastmon benchmark runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --summary [--runs 10] [--seconds 10] [--workloads a,b]
                             [--overhead-pairs 4] [--record-goldens] [--baseline-out FILE]
    python3 perfbench/run.py --selftest

A single run builds the benchmark binary (`perfbench/Cargo.toml`, into
`$CARGO_TARGET_DIR`, default `.bench_build`), runs one workload in its own
process with a cleaned environment and a fresh work directory, checks the
outputs against `perfbench/goldens.json` (exact values for recorded seeds;
invariants only otherwise), and prints one JSON object as its last line:
`{"correct", "attempted", "failed", "metrics"}`. It exits 0 only when the
run is correct. Every run is pinned to THREADS CPUs. `--summary` runs
every workload over seeds 1..runs after one discarded warm-up run, and
prints median, quartiles and n per end-to-end metric, `ops_failed` per
workload, one traced run's per-layer metrics, and the tracing overhead
from back-to-back untraced/traced pairs of seed 1. `--selftest` shows on
tiny circuits that planted fingerprint and schedule mismatches fail the
run. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "goldens.json")
STATE = os.path.join(ROOT, ".perfbench")
WORKLOADS = ["flow-podem", "campaign", "campaign-procs", "schedule-ilp"]
# campaign-procs runs the first instances of campaign, so its outputs must
# match those of campaign's goldens.
GOLDEN_KEY = {"campaign-procs": "campaign"}
# Workloads whose instances do not depend on --seed: one golden, recorded
# under this key, holds for every seed.
FIXED_INPUTS = {"schedule-ilp"}
ANY_SEED = "any"
# FlowConfig::threads of every workload; every run is pinned to this many
# CPUs, so that a library default of "all available cores" (which the
# shard workers use) means the same on every host.
THREADS = 2
END_TO_END = ["wall_s", "cpu_s", "peak_rss_mb", "setup_s"]
# A traced run's timed part may hold at most this share of time that no
# layer span covers: the layer self-times sum to wall_s within it.
TRACE_TOLERANCE = 0.01
# A run is killed after this many seconds (the contract allows 180).
RUN_TIMEOUT_S = 170
# The only FASTMON_* knobs a run sets; every inherited one is cleared.
RUN_ENV = {"campaign-procs": {"FASTMON_SHARD_JOBS": "2"}}


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the benchmark binary and returns its path (None on failure)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if proc.returncode != 0:
        log(f"build failed with exit code {proc.returncode}")
        return None
    path = os.path.join(target_dir(), "release", "fastmon-perfbench")
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return path


def load_goldens():
    try:
        with open(GOLDENS) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def golden_seed(workload, seed):
    return ANY_SEED if workload in FIXED_INPUTS else str(seed)


def golden(goldens, workload, seed):
    """The recorded outputs of a run, or None when the seed is unrecorded."""
    return goldens.get(GOLDEN_KEY.get(workload, workload), {}).get(golden_seed(workload, seed))


def oracle_args(goldens, workload, seed):
    """campaign-procs checks itself against an in-process campaign when no
    golden records the seed."""
    recorded = golden(goldens, workload, seed) is not None
    return ["--oracle"] if workload == "campaign-procs" and not recorded else []


def pinned_cpus():
    return sorted(os.sched_getaffinity(0))[:THREADS]


def pin_cpus():
    """Runs in the forked child before exec: pins the run and every process
    it starts to THREADS CPUs."""
    os.sched_setaffinity(0, pinned_cpus())


def run_env(workload):
    env = {k: v for k, v in os.environ.items() if not k.startswith("FASTMON_")}
    env.update(RUN_ENV.get(workload, {}))
    return env


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def provenance(workload, env):
    return {
        "workload": workload,
        "threads": THREADS,
        "nproc": os.cpu_count(),
        "pinned_cpus": pinned_cpus(),
        "machine": platform.machine(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "commit": command_output(["git", "rev-parse", "HEAD"]) or "unknown (no git checkout)",
        "env": {k: v for k, v in env.items() if k.startswith("FASTMON_")},
    }


def run_binary(binary, workload, seed, seconds, trace, extra=(), tiny=False):
    """Runs one workload process; returns (exit code, parsed result or None)."""
    os.makedirs(STATE, exist_ok=True)
    work = os.path.join(STATE, f"work-{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work, *extra]
    if tiny:
        cmd.append("--tiny")
    if trace:
        traces = os.path.join(STATE, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{workload}-seed{seed}.jsonl")]
    env = run_env(workload)
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True, preexec_fn=pin_cpus)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: timed out after {RUN_TIMEOUT_S} s")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 1, None
    finally:
        # Shard workers live in the run's process group; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{workload} seed {seed}: no result line (exit {proc.returncode})")
        return proc.returncode or 1, None
    result["provenance"] = provenance(workload, env)
    return proc.returncode, result


def check(workload, seed, code, result, goldens, trace):
    """Failure accounting of one run: (correct, attempted, failed, errors)."""
    if result is None:
        return False, 1, 1, [f"run failed with exit code {code}"]
    attempted, failed = result["attempted"], result["failed"]
    errors = list(result["errors"])
    if code != 0:
        errors.append(f"exit code {code}")
    want = golden(goldens, workload, seed)
    got = result["output"]
    if want is not None and workload in GOLDEN_KEY:
        # Instances share seeds across workloads; compare the common ones.
        want = want[:len(got)]
    if got is None:
        errors.append("no output")
    elif want is not None and want != got:
        # A run whose outputs differ from the recorded ones fails as a whole.
        errors.append(f"output {json.dumps(got)} != golden {json.dumps(want)}")
        failed = attempted
    if trace:
        m = result["metrics"]
        share = m["trace.unattributed_s"]["value"] / max(m["trace.wall_s"]["value"], 1e-9)
        if share > TRACE_TOLERANCE:
            errors.append(f"layer self-times leave {share:.2%} of wall_s unattributed")
    failed = max(failed, 1) if errors and failed == 0 else failed
    return not errors, attempted, failed, errors


def single(args):
    binary = build()
    if binary is None:
        return 2
    goldens = load_goldens()
    code, result = run_binary(binary, args.workload, args.seed, args.seconds, args.trace,
                              oracle_args(goldens, args.workload, args.seed))
    correct, attempted, failed, errors = check(
        args.workload, args.seed, code, result, goldens, args.trace)
    if result is None:
        return code or 1
    for e in errors:
        log(f"FAILED: {e}")
    record = {"seed": args.seed, "trace": bool(args.trace), **result}
    with open(os.path.join(STATE, "history.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    log("provenance: " + json.dumps(result["provenance"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_checked(binary, goldens, w, seed, seconds, trace, label):
    """One run with its failure accounting; logs every failure and how long
    the run took, set-up and checks included."""
    t0 = time.monotonic()
    code, result = run_binary(binary, w, seed, seconds, trace, oracle_args(goldens, w, seed))
    ok, attempted, failed, errors = check(w, seed, code, result, goldens, trace)
    for e in errors:
        log(f"{w} {label} FAILED: {e}")
    log(f"{w} {label}: run took {time.monotonic() - t0:.1f} s")
    return ok, attempted, failed, result


def summary(args):
    binary = build()
    if binary is None:
        return 2
    goldens = load_goldens()
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    seeds = list(range(1, args.runs + 1))
    baseline = {"host": {"nproc": os.cpu_count(), "pinned_cpus": pinned_cpus(),
                         "machine": platform.machine(),
                         "rustc": command_output(["rustc", "--version"])},
                "workloads": {}}
    all_ok = True
    for w in workloads:
        # The first run of a set runs on cold caches and a cold binary;
        # it is discarded.
        ok, *_ = run_checked(binary, goldens, w, seeds[0], args.seconds, False, "warm-up")
        all_ok &= ok
        values = {m: [] for m in END_TO_END}
        attempted = failed = 0
        for seed in seeds:
            recorded = golden(goldens, w, seed) is not None
            ok, a, f, result = run_checked(binary, goldens, w, seed, args.seconds, False,
                                           f"seed {seed}")
            attempted += a
            failed += f
            if result is None:
                continue
            # Only a workload that owns its goldens records them.
            if ok and args.record_goldens and not recorded and w not in GOLDEN_KEY:
                goldens.setdefault(w, {})[golden_seed(w, seed)] = result["output"]
                with open(GOLDENS, "w") as fh:
                    json.dump(goldens, fh, indent=1, sort_keys=True)
                    fh.write("\n")
            for m in END_TO_END:
                values[m].append(result["metrics"][m]["value"])
            log(f"{w} seed {seed}: " + ", ".join(
                f"{m}={result['metrics'][m]['value']:.4g}" for m in END_TO_END))
        all_ok &= failed == 0
        row = {"n": len(seeds), "attempted": attempted, "failed": failed,
               "ops_failed": failed / max(attempted, 1), "metrics": {}}
        for m in END_TO_END:
            q1, med, q3 = quartiles(values[m])
            row["metrics"][m] = {"median": med, "q1": q1, "q3": q3,
                                 "spread": (q3 - q1) / med if med else 0.0,
                                 "values": values[m]}
        # Tracing overhead: back-to-back untraced/traced pairs of seed 1 in
        # alternating order, so that with an even number of pairs each side
        # runs first equally often and drift of the host's speed cancels;
        # the median of traced minus untraced wall_s. The first traced run
        # gives the per-layer breakdown.
        diffs = []
        for pair in range(args.overhead_pairs):
            walls = {}
            for trace in ((False, True) if pair % 2 == 0 else (True, False)):
                ok, _, _, result = run_checked(binary, goldens, w, 1, args.seconds, trace,
                                               "traced" if trace else "untraced")
                all_ok &= ok
                if result is None:
                    continue
                metrics = result["metrics"]
                walls[trace] = metrics["trace.wall_s" if trace else "wall_s"]["value"]
                if trace and "per_layer" not in row:
                    row["per_layer"] = {k: v["value"] for k, v in metrics.items()}
            if len(walls) == 2:
                diffs.append(walls[True] - walls[False])
        if diffs:
            row["trace_overhead_s"] = statistics.median(diffs)
            row["trace_overhead_pairs_s"] = diffs
        row["commands"] = {
            "end_to_end": f"python3 perfbench/run.py --workload {w} --seed <1..{args.runs}> "
                          f"--seconds {args.seconds} --trace 0",
            "per_layer": f"python3 perfbench/run.py --workload {w} --seed 1 "
                         f"--seconds {args.seconds} --trace 1",
        }
        baseline["workloads"][w] = row
        print_row(w, row)
    if args.baseline_out:
        with open(args.baseline_out, "w") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0 if all_ok else 1


def print_row(w, row):
    print(f"\n## {w}  (n = {row['n']}, ops_failed = {row['ops_failed']:.4g} "
          f"= {row['failed']}/{row['attempted']})")
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}")
    for m, s in row["metrics"].items():
        print(f"{m:<14}{s['median']:>12.4f}{s['q1']:>12.4f}{s['q3']:>12.4f}"
              f"{s['spread']:>9.3f}")
    layers = row.get("per_layer", {})
    if layers:
        print(f"pairs_per_s (traced run, seed 1): {layers['sim.pairs_per_s']:.6g}")
        overhead = row.get("trace_overhead_s")
        if overhead is not None:
            print(f"trace overhead (median of {len(row['trace_overhead_pairs_s'])} pairs, "
                  f"seed 1): {overhead:+.3f} s")
        print("traced run (seed 1), layer self-times [s]:")
        for k, v in layers.items():
            if k.endswith("_s") and k != "sim.pairs_per_s" and v:
                print(f"  {k:<32}{v:>12.4f}")
    sys.stdout.flush()


def planted_golden_caught(binary, workload, plant):
    """Runs `workload` on tiny circuits, then checks its result against a
    golden that `plant` altered; True when the check fails the run."""
    code, base = run_binary(binary, workload, 1, 0, False, tiny=True)
    ok, *_ = check(workload, 1, code, base, {}, False)
    if not ok:
        log(f"selftest: the unplanted tiny {workload} run failed")
        return False
    planted = json.loads(json.dumps(base["output"]))
    plant(planted[0])
    goldens = {workload: {golden_seed(workload, 1): planted}}
    ok, _, failed, errors = check(workload, 1, code, base, goldens, False)
    if ok or failed == 0:
        log(f"selftest: a planted {workload} golden mismatch was not caught")
        return False
    log(f"selftest: planted {workload} golden mismatch caught: {errors[0]}")
    return True


def flip_fingerprint(output):
    output["fingerprint"] = "%016x" % (int(output["fingerprint"], 16) ^ 1)


def add_frequency(output):
    output["frequencies"] += 1


def selftest(_args):
    """Planted fingerprint and schedule mismatches must fail the run, on
    tiny circuits."""
    binary = build()
    if binary is None:
        return 2
    if not planted_golden_caught(binary, "campaign", flip_fingerprint):
        return 1
    if not planted_golden_caught(binary, "schedule-ilp", add_frequency):
        return 1
    code, procs = run_binary(binary, "campaign-procs", 1, 0, False,
                             ["--oracle", "--plant-mismatch"], tiny=True)
    ok, _, failed, errors = check("campaign-procs", 1, code, procs, {}, False)
    if ok or failed == 0 or code == 0:
        log("selftest: a planted supervised/in-process mismatch was not caught")
        return 1
    log(f"selftest: planted oracle mismatch caught: {errors[0]}")
    print("selftest passed")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--summary", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default="")
    p.add_argument("--overhead-pairs", type=int, default=4)
    p.add_argument("--record-goldens", action="store_true")
    p.add_argument("--baseline-out", default="")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    os.chdir(ROOT)
    if args.selftest:
        return selftest(args)
    if args.summary:
        return summary(args)
    if not args.workload:
        p.error("--workload is required")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
