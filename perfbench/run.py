"""Benchmark of mlmod on the paper's three workloads.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Without ``--workload`` every workload
that BENCHMARK.json lists runs in turn; ``--seconds`` defaults to its
``run_seconds``.  Each run starts a fresh measured process that repeats
passes for ``--seconds`` and times set-up in fresh processes between
them (see child.py).  After that process has exited, every result document
it wrote is checked (see check.py).  The run prints each metric with its
unit and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  It exits 1
when a check fails, 2 when the checkout has no mlmod sources.

A record of each run, with its environment, is kept under ``.perfbench/``.
"""

from __future__ import annotations

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
STATE = os.path.join(ROOT, ".perfbench")
BLAS_THREADS = 1  # one core: two threads wait on the slower of two shared cores at every call
EXIT_LIMIT_S = 180.0  # a run must have exited by then
CHECK_RESERVE_S = 30.0  # the part of it kept for the check after the processes have ended
# The passes get --seconds; the same again is left for the set-up samples and
# for passes that run past it (the last one, or a first cycle of instances that
# takes longer than --seconds).
MAX_SECONDS = (EXIT_LIMIT_S - CHECK_RESERVE_S) / 2


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MLMOD_WORKERS", None)
    threads = str(BLAS_THREADS)
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    return env


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(args, work: str) -> dict | None:
    """Run child.py, the measured process, to completion: its summary, or
    None if it failed.  It runs in a process group of its own, so that a
    set-up process it started is stopped with it."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", work]
    summary_path = os.path.join(work, "summary.json")
    with open(os.path.join(work, "child.log"), "w", encoding="utf-8") as log:
        started = time.monotonic()
        proc = subprocess.Popen(cmd + ["--started", repr(started)], cwd=ROOT, env=child_env(),
                                stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            proc.wait(timeout=EXIT_LIMIT_S - CHECK_RESERVE_S)
        except subprocess.TimeoutExpired:
            print(f"{args.workload}: the measured process timed out", file=sys.stderr)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if proc.returncode != 0 or not os.path.exists(summary_path):
        with open(os.path.join(work, "child.log"), encoding="utf-8") as log:
            sys.stderr.write(log.read()[-4000:])
        return None
    with open(summary_path, encoding="utf-8") as fh:
        return json.load(fh)


def first_cycle(passes: list[dict]) -> set[str]:
    """Directories of the first untraced pass on each instance.  q_mean is
    taken over these alone, so it does not depend on how many passes fit
    in the run."""
    first = {}
    for p in passes:
        if not p["traced"]:
            first.setdefault(p["instance"], p["dir"])
    return set(first.values())


def check_passes(args, passes) -> tuple[dict[str, list[float]], list[str]]:
    """q_total of every correct detection, by pass directory, and a message
    per failed one."""
    from check import Checker
    from workloads import WORKLOADS

    checker = Checker(args.workload, args.seed)
    q_values, failures = {}, []
    items = sorted((p["instance"], index, p["dir"], p["rc"], document)
                   for p in passes for document, index in WORKLOADS[args.workload].documents)
    for instance, index, directory, rc, document in items:
        name = os.path.basename(directory)
        if rc != 0:
            failures.append(f"{name}: exit code {rc}")
            continue
        q, message = checker.check(os.path.join(directory, document), instance, index)
        if message:
            failures.append(f"{name}/{message}")
        else:
            q_values.setdefault(directory, []).append(q)
    return q_values, failures


def run_one(args) -> tuple[dict, int]:
    """One run of one workload: (result object, exit code)."""
    work = os.path.join(STATE, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        summary = measure(args, work)
        if summary is None:
            return {}, 2
        setups = summary["setup_samples"]
        q_values, failures = check_passes(args, summary["passes"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(failures) + sum(map(len, q_values.values()))
    walls = [p["wall_s"] for p in summary["passes"] if not p["traced"]]
    scored = [q for d in first_cycle(summary["passes"]) for q in q_values.get(d, [])]
    values = summary["layers"] if args.trace else {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": summary["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "q_mean": statistics.fmean(scored) if scored else 0.0,
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared_metrics(args.trace)}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}

    print(f"{args.workload}  seed {args.seed}  {len(summary['passes'])} passes  "
          f"{attempted} detections  {len(failures)} failed  "
          f"error_rate {len(failures) / attempted:g}")
    for message in failures[:10]:
        print(f"  FAILED {message}")
    for name, metric in metrics.items():
        print(f"  {name:45s} {metric['value']:14.6g} {metric['unit']}")
    if summary.get("trace_missing"):
        print(f"  not traced (not found): {', '.join(summary['trace_missing'])}")
    env = dict(summary["env"], git_sha=git_sha(), nproc=nproc(), seed=args.seed,
               machine=platform.machine())
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    record = os.path.join(STATE, "results",
                          f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "trace": args.trace, "env": env,
                   "setup_samples": setups,
                   "passes": [{k: p[k] for k in ("instance", "rc", "wall_s", "traced")}
                              for p in summary["passes"]],
                   "failures": failures, **result}, fh, indent=1)
    return result, 0 if not failures else 1


def declared(key: str):
    """One entry of BENCHMARK.json: run_seconds, workloads, end_to_end or per_layer."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[key]


def declared_metrics(trace: int) -> list[tuple[str, str]]:
    """Names and units of the metrics BENCHMARK.json declares for this mode."""
    return [(m["name"], m["unit"]) for m in declared("per_layer" if trace else "end_to_end")]


def main() -> int:
    parser = argparse.ArgumentParser(description="mlmod benchmark")
    parser.add_argument("--workload", help="one workload (default: those BENCHMARK.json lists)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(declared("run_seconds")),
                        help="how long the passes of a run go on (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be above 0 and at most {MAX_SECONDS:g}, so that a run "
                     f"ends within {EXIT_LIMIT_S:g} s")
    # On SIGTERM, unwind so that subprocess.run kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "mlmod", "__init__.py")):
        print(f"no mlmod sources under {ROOT}/src: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else [w["name"] for w in declared("workloads")]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload; choose from {', '.join(WORKLOADS)}")
    code = 0
    for name in names:
        args.workload = name
        result, run_code = run_one(args)
        if run_code == 2:
            print(f"{name}: the measured process failed", file=sys.stderr)
            return 2
        code = max(code, run_code)
        if len(names) == 1:
            print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
