"""The measured process of one benchmark run.

A fresh process per run, so its peak RSS belongs to that run alone.  It
imports mlmod from the checkout and makes the workload's inputs (set-up),
then runs one pass after another, a closed loop with one client, until
the run's seconds are spent and every instance has had its pass.  A pass
is one ``mlmod.cli.main`` call on one of the workload's instances, writing
its result documents to a directory of its own.  Between passes, spread
over the run, it times set-up in fresh processes that only set up
(``--setup-only``).  With tracing on, passes alternate untraced and
traced, so the tracing overhead is measured in the same process.  A JSON
summary is written for the parent, which checks the result documents
after this process has exited.

Usage: child.py --workload W --seed N --seconds S --trace 0|1
                --work DIR --started MONOTONIC [--setup-only]
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Set-up is timed this many times in a run: in this process and in fresh
# processes between passes.  The machine's speed changes from second to
# second, so the samples are spread over the whole run rather than taken
# back to back.
SETUP_SAMPLES = 9


def _blas() -> dict:
    """Name of the BLAS numpy was built with and the thread count it reports."""
    import numpy as np

    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted(set(re.findall(r"\S*openblas\S*\.so\S*", fh.read())))
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return {"blas": name, "blas_threads": threads}


def _setup_sample(args) -> float:
    """Set-up time of a fresh process that only sets up."""
    work = os.path.join(args.work, "setup")
    os.makedirs(work, exist_ok=True)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--work", work,
           "--setup-only", "--started"]
    subprocess.run(cmd + [repr(time.monotonic())], cwd=ROOT, check=True)
    with open(os.path.join(work, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)["setup_s"]


def _run_passes(cli, argvs, passes_dir, seconds, tracer, sample, setups):
    """Passes cycle through the instances; with tracing, each instance gets
    an untraced pass followed by a traced one.  After a pass, ``sample()``
    is appended to ``setups`` while the samples lag behind the pass time;
    the time it takes does not count against ``seconds``."""
    passes = []
    deadline = time.perf_counter() + seconds
    spacing = seconds / SETUP_SAMPLES
    # Every instance gets at least one pass (one untraced and one traced pass
    # with tracing), so every run scores the same instances.
    least = len(argvs) if tracer is None else 2 * len(argvs)
    while len(passes) < least or time.perf_counter() < deadline:
        k = len(passes)
        traced = tracer is not None and k % 2 == 1
        instance = (k // 2 if tracer is not None else k) % len(argvs)
        out = os.path.join(passes_dir, f"{k:05d}")
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            rc = cli.main(argvs[instance] + ["--out", out])
        except Exception:  # a crash fails the pass's detections; the loop goes on
            traceback.print_exc()
            rc = -1
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        passes.append({"dir": out, "instance": instance, "rc": rc, "wall_s": wall,
                       "traced": traced})
        if len(setups) < SETUP_SAMPLES and sum(p["wall_s"] for p in passes) >= \
                len(setups) * spacing:
            t0 = time.perf_counter()
            setups.append(sample())
            deadline += time.perf_counter() - t0
    while len(setups) < SETUP_SAMPLES:
        setups.append(sample())
    return passes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() of the parent just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import mlmod.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(mlmod.__file__))) != src:
        print(f"mlmod imported from {mlmod.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    argvs = WORKLOADS[args.workload].prepare(os.path.join(args.work, "inputs"), args.seed)
    summary = {"setup_s": time.monotonic() - args.started}
    if not args.setup_only:
        setups = [summary["setup_s"]]
        tracer = None
        if args.trace:
            from tracer import Tracer, layer_metrics

            tracer = Tracer()
        passes = _run_passes(mlmod.cli, argvs, os.path.join(args.work, "passes"), args.seconds,
                             tracer, lambda: _setup_sample(args), setups)
        summary["passes"] = passes
        summary["setup_samples"] = setups
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            summary["layers"] = layer_metrics(tracer, passes)
            summary["trace_missing"] = tracer.missing
        import numpy
        import scipy

        summary["env"] = dict(
            _blas(), python=platform.python_version(), numpy=numpy.__version__,
            scipy=scipy.__version__, mlmod_workers=os.environ.get("MLMOD_WORKERS", "1 (default)"),
            argv=argvs[0],
        )
    with open(os.path.join(args.work, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
