#!/usr/bin/env python3
"""Simulator benchmark: builds perfbench_sim from source, runs one workload and
prints the result as one JSON object on the last line of stdout.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 \\
        --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run and writes its spans next to the run record. Run
from the repository root (or any checkout of it). The build goes to
.bench_build/perfbench; every run's full record (metrics, digests,
environment, failures) goes to .bench_build/perfbench/runs/, which
compare.py reads. See perfbench/README.md.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import benchlib  # noqa: E402

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "RelWithDebInfo"  # the repo's default build


def program_timeout(seconds):
    """Seconds perfbench_sim may take for a run of `seconds`: the last pass
    (a pass pair when traced) overshoots the budget, and traced runs add the
    layer probes."""
    return 2 * seconds + 110


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench_sim; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
         "--target", "perfbench_sim"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT)
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(step)}")
            return None
    return BUILD_DIR / "perfbench_sim"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=benchlib.WORKLOADS)
    parser.add_argument("--seed", type=benchlib.parse_seed,
                        default=benchlib.DEFAULT_SEED,
                        help="integer, or 'default' "
                             f"({benchlib.DEFAULT_SEED}) / 'heldout' "
                             f"({benchlib.HELDOUT_SEED})")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    refused = benchlib.refused_environment(os.environ)
    if refused:
        log("refusing to run: these variables change the simulated "
            f"scenarios: {', '.join(refused)}")
        return 2
    if args.seconds < 1:
        log("--seconds must be at least 1")
        return 2

    program = build()
    if program is None:
        return 1

    runs_dir = BUILD_DIR / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    stem = (f"{args.workload}.seed{args.seed}.trace{args.trace}."
            f"{time.time_ns()}")
    command = [str(program), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    spans = runs_dir / f"{stem}.spans.jsonl"
    if args.trace:
        command += ["--spans", str(spans)]
    timeout = program_timeout(args.seconds)
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench_sim did not finish within {timeout} s")
        return 1
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        log(f"perfbench_sim exited with {done.returncode}")
        return 1

    lines = [json.loads(line) for line in done.stdout.splitlines() if line]
    outcome = benchlib.summarize(lines, args.trace == 1)
    tail_ms, samples = outcome["tail"]
    env = outcome["env"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "failures": outcome["failures"],
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in outcome["metrics"].items()},
        "untraced_passes": outcome["passes"],
        "r_over_e": outcome["r_over_e"],
        "scenario_ms_p90": tail_ms,
        "scenario_samples": samples,
        "digests": [{"pass": p, "traced": t, "digest": d}
                    for p, t, d in outcome["digests"]],
        "env": {"compiler": env["compiler"], "build_type": env["build_type"],
                "nproc": env["nproc"], "git_sha": git_sha()},
        "spans": str(spans.relative_to(ROOT)) if args.trace else None,
    }
    (runs_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    log(f"{args.workload} seed {args.seed}: {outcome['passes']} untraced "
        f"passes, {outcome['attempted']} scenario runs, "
        f"{outcome['failed']} failed; output digest "
        f"{outcome['digests'][0][2][:16]}")
    log(f"scenario time over {samples} samples: p90 "
        + (f"{tail_ms:.3f} ms" if tail_ms is not None
           else "not reported (fewer than 10 samples beyond it)"))
    log(f"{env['compiler']}, {env['build_type']}, nproc {env['nproc']}, "
        f"git {record['env']['git_sha']}")
    for failure in outcome["failures"]:
        log(f"FAILED {failure}")
    print(benchlib.result_line(outcome["correct"], outcome["attempted"],
                               outcome["failed"], outcome["metrics"]))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
