#!/usr/bin/env python3
"""Benchmark of the mdistinct publisher, attack and CLI, one workload a run.

    python3 perfbench/run.py --workload sim_m6 --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the package is imported from `src/`, so
nothing needs installing.  A run sets up its inputs and then runs one timed
pass, again and again until `--seconds` have passed, and reports medians.
With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes and prints the per-layer metrics.
Every pass's outputs are checked (see gate.py).  The last line of stdout is
one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Per-run records (environment, every per-pass sample, counts, and in traced
runs every span) go to `.perfbench_out/` in the checkout.
`--workload all` runs each workload in its own child process, one after
the other, so that peak_rss_mb belongs to that workload alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NAMES = ("sim_m6", "sim_minv", "cli_m2")
# digests.json holds the outputs of this seed
DEFAULT_SEED = 7
# Set-up runs this many times before the first pass and once more before
# every pass, so that its median spans the whole run, not one moment of it.
SETUP_REPEATS_BEFORE = 2
# A traced run needs two traced passes to show that counts repeat.
MIN_TRACED_PASSES = 2

TIMES = ("engine.publish", "engine.phase1", "engine.phase2", "engine.phase3",
         "engine.static_partition", "engine.verify", "model.generalize",
         "sug.attack", "sug.build", "sug.prune", "sug.risks",
         "evaluation.estimate", "evaluation.count", "baselines.minv",
         "fileio.replay_state", "fileio.read_release", "fileio.write_release",
         "fileio.load_microdata", "fileio.write_risks")
SELF_TIMES = ("evaluation.run_experiment", "cli.publish", "cli.attack",
              "cli.verify")
COUNTS = ("engine.phase1.buckets", "engine.phase1.intersection_buckets",
          "engine.phase2.routed", "engine.phase2.pool", "engine.phase3.calls",
          "engine.phase3.groups", "engine.static_partition.groups",
          "engine.counterfeits", "updates.implies.calls",
          "updates.intersect.calls", "updates.uss_of.calls",
          "sug.attack.calls", "sug.graphs", "sug.nodes", "sug.nodes_pruned",
          "sug.edges", "sug.paths", "evaluation.estimate.queries",
          "baselines.minv.invalidated", "fileio.read_release.calls",
          "fileio.load_microdata.calls", "fileio.history_bytes")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=(*NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_checkout() -> str | None:
    """Why this directory cannot be benchmarked, or None."""
    if not (SRC / "mdistinct" / "__init__.py").is_file():
        return f"no mdistinct sources under {SRC}; run from a checkout root"
    return None


def git_sha() -> str:
    """HEAD's commit, read from .git without starting git; the benchmark
    may run in a checkout that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over src/, which names the code when there is no git sha."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def thread_count() -> int:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return -1


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(args) -> int:
    from refclock import UNLOADED_KERNEL_S, RefClock
    from workloads import SIZES, WORKLOADS

    workload, size = WORKLOADS[args.workload], SIZES[args.workload]
    work = fresh(OUT / "work" / args.workload)
    setup_samples, problems = [], []

    def set_up():
        """Make the inputs and run the warm-up pass; time it."""
        mark = clock.read()
        inputs = workload.prepare(args.seed, size, fresh(work / "inputs"))
        warm = workload.warmup(inputs)
        warm_out = fresh(work / "warm")
        done = workload.run(warm, warm_out, clock)
        workload.finish(warm, done, warm_out, clock)
        setup_samples.append(clock.since(mark))
        problems.extend(f"warm-up {len(setup_samples)}: {p}"
                        for p in done.problems)
        return inputs

    with RefClock() as clock:
        for _ in range(SETUP_REPEATS_BEFORE):
            set_up()
        passes, traced_counts, spans, oracle_checked = measure(
            args, workload, set_up, work, clock, problems)

    for counts in traced_counts[1:]:
        if counts != traced_counts[0]:
            problems.append("counts differ between traced passes")
    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    info = {  # wall seconds, printed and recorded but not bounded
        "setup_wall_s": median([wall for wall, _ in setup_samples]),
        "run_s": median([p["run_s"] for p in plain]),
        "publish_p50_s": median([s for p in plain for s, _ in p["publish"]]),
        "audit_s": median([p["audit_s"] for p in plain]),
        "ref_kernel_s": median(clock.samples),
        "ref_kernel_min_s": min(clock.samples),
    }
    if args.trace:
        metrics = layer_metrics(plain, traced_passes, traced_counts[0])
    else:
        metrics = {
            # set-up time as the unloaded host would give it (see README)
            "setup_s": (median([ref for _, ref in setup_samples])
                        * UNLOADED_KERNEL_S, "s"),
            "run_ref": (median([p["run_ref"] for p in plain]), "ref"),
            "publish_p50_ref": (median([r for p in plain
                                        for _, r in p["publish"]]), "ref"),
            "audit_ref": (median([p["audit_ref"] for p in plain]), "ref"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": thread_count(), "python": platform.python_version(),
        "numpy": _numpy_version(), "size": vars(size),
        "setup_s": setup_samples, "passes": passes,
        "oracle_checked": oracle_checked, "counts": traced_counts,
        "problems": problems, "info": info,
        "sampler_s": clock.handler_s, "kernel_samples": len(clock.samples),
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    tag = f"{args.workload}.trace{args.trace}"
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if spans:
        with open(OUT / f"{args.workload}.spans.csv", "w") as fh:
            fh.write("name,start,end,parent,pass\n")
            for name, start, end, parent, pass_id in spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{pass_id}\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes ({len(traced_passes)} traced); oracle "
          f"checked {oracle_checked} records; record in {OUT / tag}.json")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    for name, value in info.items():
        print(f"{name:40s} {value:14.6f} s (wall, median)")
    print(f"{'error_rate':40s} {failed / attempted:14.6f} "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def measure(args, workload, set_up, work: Path, clock, problems: list[str]):
    """Set up, then run one pass, until --seconds have passed (and, when
    tracing, two traced passes ran); check each pass's outputs as it
    ends."""
    from gate import compare_digests, recorded_digests
    from tracer import Tracer, install
    from workloads import SIZES, expected_read_release_calls

    want = recorded_digests(args.workload) if args.seed == DEFAULT_SEED \
        else None
    read_calls = expected_read_release_calls(SIZES[args.workload]) \
        if args.workload == "cli_m2" else None
    passes, traced_counts, spans = [], [], []
    oracle_checked = 0
    first_digests = None
    deadline = time.perf_counter() + args.seconds
    while True:
        index = len(passes)
        # untraced, traced, traced, untraced, ...: the shortest traced run
        # has the two traced passes whose counts must agree
        traced = bool(args.trace) and index % 3 != 0
        inputs = set_up()
        out_dir = fresh(work / "pass")
        tracer = install(Tracer(index)) if traced else None
        cpu = time.process_time()
        try:
            done = workload.run(inputs, out_dir, clock)
        finally:
            if tracer is not None:
                tracer.uninstall()
        cpu = time.process_time() - cpu
        workload.finish(inputs, done, out_dir, clock)

        label = f"pass {index}{' (traced)' if traced else ''}"
        pass_problems = [f"{label}: {p}" for p in done.problems]
        if first_digests is None:
            first_digests = done.digests
            if want is not None:
                pass_problems += compare_digests(
                    f"{label} vs digests.json", done.digests, want)
            oracle_checked, oracle_problems = workload.oracle(
                inputs, done, out_dir)
            pass_problems += [f"{label}: {p}" for p in oracle_problems]
        else:
            pass_problems += compare_digests(f"{label} vs pass 0",
                                             done.digests, first_digests)
        span_s = {}
        if tracer is not None:
            counts = {**tracer.counts, **done.counts}
            pass_problems += [f"{label}: {p}" for p in
                              tracer.identity_problems(counts, read_calls)]
            traced_counts.append(counts)
            spans.extend(tracer.closed_spans())
            span_s = tracer.span_seconds()
        if pass_problems:
            done.failed = max(done.failed, 1)
        problems += pass_problems
        passes.append({
            "pass": index, "traced": traced, "run_s": done.run[0],
            "run_ref": done.run[1], "cpu_s": cpu, "publish": done.publish,
            "audit_s": done.audit[0], "audit_ref": done.audit[1],
            "attempted": done.attempted, "failed": done.failed,
            "digests": done.digests if index == 0 else None,
            "span_s": span_s})
        n_traced = sum(p["traced"] for p in passes)
        if time.perf_counter() >= deadline and (
                not args.trace or n_traced >= MIN_TRACED_PASSES):
            return passes, traced_counts, spans, oracle_checked


def layer_metrics(plain, traced, counts) -> dict[str, tuple[float, str]]:
    def span_median(key):
        return median([p["span_s"].get(key, 0.0) for p in traced])

    metrics = {f"{name}.s": (span_median(name), "s") for name in TIMES}
    metrics.update({f"{name}.self_s": (span_median(name + ".self"), "s")
                    for name in SELF_TIMES})
    metrics.update({name: (counts.get(name, 0), "count") for name in COUNTS})
    metrics["sug.graphs_fresh_ratio"] = (
        _ratio(counts.get("sug.graphs_fresh", 0), counts.get("sug.graphs", 0)),
        "ratio")
    metrics["evaluation.estimate.kept_ratio"] = (
        _ratio(counts.get("evaluation.estimate.kept", 0),
               counts.get("evaluation.estimate.queries", 0)), "ratio")

    def run_ref(group):
        return median([p["run_ref"] for p in group])

    metrics["trace.overhead_frac"] = (
        (run_ref(traced) - run_ref(plain)) / run_ref(plain), "ratio")
    return metrics


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _numpy_version() -> str:
    import numpy
    return numpy.__version__


def run_all(args) -> int:
    """Each workload in its own process, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            print(f"workload {name} exited {child.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = check_checkout()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    try:
        return run_workload(args)
    except Exception:  # report the failure; print no result line
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    # numpy's BLAS would otherwise start a thread per core at import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.exit(main())
