#!/usr/bin/env python3
"""Benchmark driver for the FACS reproduction.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --record-expected

Run from the repository root. Builds the `facsbench` measuring program
from source (into $CARGO_TARGET_DIR, default `.bench_build`), runs it,
checks the simulated outputs, and prints as its last stdout line one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 measures the end-to-end metrics: three fresh processes, each
set up once (set-up is timed; the compiled decision surfaces are cached
per process) and then repeating the workload untraced for a third of
--seconds. Each process's first repetition is a warm-up and is not timed.
On the kernel workloads a set-up-only process between two workers adds a
set-up sample. Host times leave out the time the hypervisor stole from
the virtual CPUs meanwhile, and every time is scaled to a reference host
speed by a calibration loop each process times (see the README). Each
metric is the median over the run's samples.

--trace 1 runs one traced process (timing wrappers around the FACS
controllers and the metrics sink, then standalone layer passes) and
reports the per-layer metrics with a reconciliation of layer estimates
against the traced run time. Never read end-to-end figures from it.

--record-expected reruns every workload at the recorded seeds and
rewrites expected.json; only for a change that is meant to alter the
simulated outputs.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["nominal", "nominal-2shard", "overload", "paper-sweep"]
EXPECTED_PATH = os.path.join(HERE, "expected.json")
# Seeds whose outputs are recorded in expected.json; 2007 is the
# scenario default.
RECORDED_SEEDS = list(range(50)) + [2007]
PROCESSES = 3
# Set-up-only processes between two workers on the kernel workloads.
SETUP_ONLY_PER_WORKER = 1
# Median calibration sample (src/calib.rs, thread CPU seconds) on the
# reference host, a 2-vCPU Xeon VM: times are reported as if the host
# executed code at that speed.
REFERENCE_CALIB_S = 0.01
# Every measuring process must have ended this long after the build.
DEADLINE_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "decisions_per_s": "1/s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

# Regime sanity bands that hold on every seed: (per-cell load, acceptance %).
REGIME_BANDS = {
    "nominal": ((0.95, 1.05), (55.0, 75.0)),
    "nominal-2shard": ((0.95, 1.05), (55.0, 75.0)),
    "overload": ((38.0, 43.0), (3.0, 10.0)),
    "paper-sweep": ((0.04, 0.6), (80.0, 97.0)),
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def layer_unit(name):
    if name.endswith("_ns") or name.endswith("_ns_per_user"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share", "util")):
        return "ratio"
    return "count"


def build():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if done.returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)
    return os.path.join(target, "release", "facsbench")


def child(binary, args, deadline):
    """Runs the measuring program once; returns its JSON report."""
    try:
        done = subprocess.run(
            [binary] + args, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        log("perfbench: measuring process timed out:", args)
        sys.exit(1)
    if done.returncode != 0:
        log("perfbench: measuring process failed:", args)
        sys.exit(1)
    return json.loads(done.stdout.strip().splitlines()[-1])


def host_context(seed, runs):
    def capture(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
            return out.stdout.strip() if out.returncode == 0 else None
        except OSError:
            return None

    root = os.path.dirname(HERE)
    digest = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(root, top)):
            dirs[:] = sorted(d for d in dirs if d != "target")
            for name in sorted(files):
                if name.endswith((".rs", ".toml", ".py")):
                    with open(os.path.join(base, name), "rb") as f:
                        digest.update(f.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": capture(["rustc", "--version"]) or "unknown",
        "git_commit": capture(["git", "-C", root, "rev-parse", "HEAD"]) or "none (not a git checkout)",
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "runs": runs,
    }


def declared_metrics(kind):
    """Metric names BENCHMARK.json declares, or None outside a checkout."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return {m["name"] for m in json.load(f)[kind]}


def load_expected():
    with open(EXPECTED_PATH) as f:
        return json.load(f)


def check_outputs(workload, seed, regime, fingerprint):
    """Problems with a run's outputs: regime outside its band, or outputs
    that differ from the ones recorded in expected.json for this seed."""
    problems = []
    check_regime(workload, regime, problems)
    expected = load_expected()["workloads"][workload].get(str(seed))
    if expected is None:
        print(f"recorded-output check skipped: seed {seed} has no recorded outputs")
    elif expected != fingerprint:
        problems.append(f"outputs {fingerprint} differ from the recorded {expected} at seed {seed}")
    return problems


def check_regime(workload, regime, problems):
    (rho_lo, rho_hi), (acc_lo, acc_hi) = REGIME_BANDS[workload]
    if not (rho_lo <= regime["rho_per_cell_min"] and regime["rho_per_cell_max"] <= rho_hi):
        problems.append(f"per-cell load outside [{rho_lo}, {rho_hi}]")
    if not acc_lo <= regime["acceptance_pct"] <= acc_hi:
        problems.append(f"acceptance {regime['acceptance_pct']:.2f}% outside [{acc_lo}, {acc_hi}]")
    mix = sum(regime[k] for k in ("arrivals", "handoffs", "completions", "exits", "mobility_steps"))
    if mix != regime["events"]:
        problems.append("event mix does not sum to the event count")


def print_regime(regime):
    print(
        "regime: per-cell rho {:.3g}-{:.3g}, acceptance {:.2f}%, dropping {:.2f}%, events {} "
        "(arrivals {}, handoffs {}, completions {}, exits {}, mobility steps {})".format(
            regime["rho_per_cell_min"], regime["rho_per_cell_max"], regime["acceptance_pct"],
            regime["dropping_pct"], regime["events"], regime["arrivals"], regime["handoffs"],
            regime["completions"], regime["exits"], regime["mobility_steps"],
        )
    )


def slowdown(report):
    """How much slower than the reference speed the host executed code
    for one process: its median calibration sample over
    REFERENCE_CALIB_S."""
    return statistics.median(report["calib_s"]) / REFERENCE_CALIB_S


def timed(report, key):
    """A worker's samples of `key` without its first (warm-up)
    repetition."""
    return report[key][1:] or report[key]


def run_times(reports):
    """Each timed repetition's host seconds less the seconds the
    hypervisor stole from the virtual CPUs meanwhile, shared among the
    workload's threads (a steal tick stops one of `workers` threads),
    scaled to the reference speed."""
    return [
        (wall - steal / r["workers"]) / slowdown(r)
        for r in reports
        for wall, steal in zip(timed(r, "run_s"), timed(r, "steal_s"))
    ]


def setup_time(report):
    """Set-up seconds less the host steal over them (set-up runs one
    thread), scaled to the reference speed."""
    return (report["setup_s"] - report["setup_steal_s"]) / slowdown(report)


def end_to_end(binary, workload, seed, seconds, deadline):
    budget = str(seconds / PROCESSES)
    reports = []
    setups = []
    for i in range(PROCESSES):
        args = ["worker", "--workload", workload, "--seed", str(seed), "--budget", budget]
        if i == PROCESSES - 1:
            args.append("--check")
        reports.append(child(binary, args, deadline))
        setups.append(setup_time(reports[-1]))
        # A kernel workload's process can time its set-up only once;
        # set-up-only processes between the workers add samples spread
        # over the whole run.
        if workload != "paper-sweep" and i < PROCESSES - 1:
            for _ in range(SETUP_ONLY_PER_WORKER):
                setup = ["setup", "--workload", workload, "--seed", str(seed)]
                setups.append(setup_time(child(binary, setup, deadline)))
    check = reports[-1]

    problems = []
    kernel = workload != "paper-sweep"
    fingerprints = [fp for r in reports for fp in r["fingerprints"]]
    # Kernel repetitions fingerprint their full outputs; sweep
    # repetitions their curves, and the check pass adds every job's
    # counters and digest.
    reference = check["outputs_fingerprint"] if kernel else check["fingerprints"][0]
    failed = sum(fp != reference for fp in fingerprints)
    attempted = len(fingerprints) + (0 if kernel else 1)
    if "peer_fingerprint" in check:
        attempted += 1
        if check["peer_fingerprint"] != check["outputs_fingerprint"]:
            failed += 1
            problems.append("nominal and nominal-2shard outputs differ")
    if not kernel and not check["sweep_folds_match"]:
        failed += 1
        problems.append("rerun sweep jobs do not fold to the runner's curves")
    if failed:
        problems.append(f"{failed} repetitions produced different outputs")
    # Every repetition produced the checked outputs (or was counted
    # above), so outputs that are wrong fail them all.
    wrong = check_outputs(workload, seed, check["regime"], check["outputs_fingerprint"])
    if wrong:
        problems += wrong
        failed = attempted

    run_s = statistics.median(run_times(reports))
    values = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "cpu_s": statistics.median(c / slowdown(r) for r in reports for c in timed(r, "cpu_s")),
        "decisions_per_s": check["decisions"] / run_s,
        "events_per_s": check["events"] / run_s,
        "peak_rss_mb": statistics.median(m for r in reports for m in timed(r, "peak_rss_mb")),
    }
    print_regime(check["regime"])
    wall = [w for r in reports for w in timed(r, "run_s")]
    print(
        "host: steal {:.1%} of the repetitions' wall time, slowdown {:.4g}; "
        "unscaled wall run_s {:.6g} s, cpu_s {:.6g} s".format(
            sum(s for r in reports for s in timed(r, "steal_s")) / sum(wall),
            statistics.median(slowdown(r) for r in reports),
            statistics.median(wall),
            statistics.median(c for r in reports for c in timed(r, "cpu_s")),
        )
    )
    for name, value in values.items():
        print(f"{name:>16} = {value:.6g} {END_TO_END_UNITS[name]}")
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return problems, attempted, failed, metrics, len(wall)


def traced(binary, workload, seed, seconds, deadline):
    report = child(
        binary,
        ["trace", "--workload", workload, "--seed", str(seed), "--budget", str(seconds)],
        deadline,
    )
    problems = []
    failed = report["failed"]
    if failed:
        problems.append("traced outputs differ from untraced outputs")
    wrong = check_outputs(workload, seed, report["regime"], report["outputs_fingerprint"])
    if wrong:
        problems += wrong
        failed = report["attempted"]
    print_regime(report["regime"])
    print(
        f"reconciliation against traced run_s = {report['traced_run_s']:.4g} s "
        f"(untraced {report['untraced_run_s']:.4g} s; per worker):"
    )
    for row in report["reconciliation"]:
        print(f"  {row['layer']:>16}: {row['seconds']:10.4f} s  {100 * row['share']:6.1f}%")
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in report["layers"].items()}
    return problems, report["attempted"], failed, metrics, report["attempted"] // 2


def record_expected(binary):
    recorded = {"workloads": {}}
    for workload in WORKLOADS:
        per_seed = {}
        for seed in RECORDED_SEEDS:
            report = child(
                binary,
                ["worker", "--workload", workload, "--seed", str(seed), "--budget", "0.001", "--check"],
                time.monotonic() + DEADLINE_S,
            )
            per_seed[str(seed)] = report["outputs_fingerprint"]
            log(f"{workload} seed {seed}: {report['outputs_fingerprint']}")
        recorded["workloads"][workload] = per_seed
    with open(EXPECTED_PATH, "w") as f:
        json.dump(recorded, f, indent=2)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.record_expected:
        record_expected(binary)
        return
    if args.workload is None or args.seed is None or args.seconds is None or args.seconds <= 0:
        parser.error("--workload, --seed and a positive --seconds are required")

    run = traced if args.trace else end_to_end
    deadline = time.monotonic() + DEADLINE_S
    problems, attempted, failed, metrics, samples = run(
        binary, args.workload, args.seed, args.seconds, deadline
    )
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if declared is not None and declared != set(metrics):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(declared ^ set(metrics))}")
    context = host_context(args.seed, samples)
    context["workload"] = args.workload
    context["trace"] = args.trace
    print("host: " + json.dumps(context))
    for problem in problems:
        print("CHECK FAILED: " + problem)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
