"""Outside-in span tracing of mlmod's public functions.

The tracer replaces each traced function in every mlmod module that holds
it, so calls through ``from .x import f`` names are caught as well as
calls within the defining module.  Each call records a span: name, start,
end and the index of the span that was open when it began.  Spans stay
in memory until the run ends.  The stack of open spans assumes one
thread, which holds because the benchmark leaves ``MLMOD_WORKERS`` at 1.

Work the tracer does itself after a call returns (counting bytes, flips
or divisions) is recorded as a ``bench`` span, so it is charged to the
benchmark and not to the layer that made the call.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import statistics
import time
from collections import defaultdict

import numpy as np

BENCH = "bench"


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if isinstance(p, str) and os.path.isfile(p))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _observe_eigen(counts, args, kwargs, result):
    n = int(np.shape(_arg(args, kwargs, 0, "matrix"))[0])
    counts["eigen.leading_eigenpair.dense_bytes"] += 8 * n * n
    counts["eigen.leading_eigenpair.n_max"] = max(counts["eigen.leading_eigenpair.n_max"], n)


def _observe_dense(key):
    def observe(counts, args, kwargs, result):
        counts[key] += getattr(getattr(result, "matrix", result), "nbytes", 0)
    return observe


def _observe_refine(counts, args, kwargs, result):
    before = np.sign(np.asarray(_arg(args, kwargs, 1, "z"), dtype=float))
    counts["mspec.refine_cut.flips"] += int(np.count_nonzero(before != np.sign(result)))


def _observe_detection(prefix, divisions=False):
    def observe(counts, args, kwargs, result):
        counts[f"{prefix}.q_sum"] += float(result.q_total)
        counts[f"{prefix}.detections"] += 1
        if divisions:
            counts["mspec.divisions.attempted"] += len(result.divisions)
            counts["mspec.divisions.applied"] += sum(1 for d in result.divisions if d.applied)
    return observe


def _observe_save(counts, args, kwargs, result):
    counts["io.save_result.bytes"] += _file_bytes(_arg(args, kwargs, 1, "path"))


def _observe_load_multiplex(counts, args, kwargs, result):
    # A coupling file passed here is read through load_couplings and counted there.
    counts["io.load.bytes"] += _file_bytes(_arg(args, kwargs, 0, "edge_path"),
                                           _arg(args, kwargs, 1, "layer_path"))


def _observe_load_couplings(counts, args, kwargs, result):
    counts["io.load.bytes"] += _file_bytes(_arg(args, kwargs, 0, "path"))


# (module that defines the function, function name, span name, observer)
TARGETS = (
    ("mlmod.cli", "main", "cli", None),
    ("mlmod.datasets", "build_karate_replica", "datasets.build_karate_replica", None),
    ("mlmod.io", "load_multiplex", "io.load", _observe_load_multiplex),
    ("mlmod.io", "load_couplings", "io.load", _observe_load_couplings),
    ("mlmod.network", "generate_couplings", "network.generate_couplings", None),
    ("mlmod.modularity", "build_modularity_matrix", "modularity.build_modularity_matrix",
     _observe_dense("modularity.build_modularity_matrix.bytes")),
    ("mlmod.modularity", "modularity", "modularity.modularity", None),
    ("mlmod.mspec", "mspec_detect", "mspec.mspec_detect",
     _observe_detection("mspec", divisions=True)),
    ("mlmod.mspec", "spectral_partition", "mspec.spectral_partition", None),
    ("mlmod.mspec", "subdivision_matrix", "mspec.subdivision_matrix",
     _observe_dense("mspec.subdivision_matrix.bytes")),
    ("mlmod.eigen", "leading_eigenpair", "eigen.leading_eigenpair", _observe_eigen),
    ("mlmod.mspec", "refine_cut", "mspec.refine_cut", _observe_refine),
    ("mlmod.mspec", "kl_relocate", "mspec.kl_relocate", None),
    ("mlmod.baselines", "mlouv", "baselines.mlouv", _observe_detection("baselines.mlouv")),
    ("mlmod.baselines", "_greedy_merge", "baselines.greedy_merge", None),
    ("mlmod.baselines", "smean_spec", "baselines.smean", _observe_detection("baselines.smean")),
    ("mlmod.baselines", "sfull_spec", "baselines.sfull", _observe_detection("baselines.sfull")),
    ("mlmod.io", "save_result", "io.save_result", _observe_save),
)

# A span is charged to another name when its caller is the given span.
ATTRIBUTION = {("mspec.kl_relocate", "baselines.mlouv"): "baselines.mlouv.kl_relocate"}

SPAN_NAMES = tuple(dict.fromkeys(
    [name for _, _, name, _ in TARGETS] + list(ATTRIBUTION.values())))


class Tracer:
    """Span recorder with install/uninstall of the function wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def wrap(self, name, fn, observe=None):
        """Wrap ``fn`` so each call records a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                own = self._open(BENCH)
                own[1] = time.perf_counter()
                try:
                    observe(self.counts, args, kwargs, result)
                finally:
                    own[2] = time.perf_counter()
                    self._stack.pop()
            return result

        return traced

    def install(self) -> None:
        """Patch every traced function wherever an mlmod module holds it."""
        import mlmod

        modules = [mlmod] + [importlib.import_module(f"mlmod.{info.name}")
                             for info in pkgutil.iter_modules(mlmod.__path__)]
        for module_name, attr, name, observe in TARGETS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(name, original, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Calls and summed self time per span name.

    A span's self time is its duration less the part of it that its child
    spans cover.  Names are remapped through ``ATTRIBUTION`` by the name of
    the calling span.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, tuple[int, float]] = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        if parent >= 0:
            name = ATTRIBUTION.get((name, spans[parent][0]), name)
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, passes: list[dict]) -> dict[str, float]:
    """Per-layer metrics of a run whose passes alternate untraced and
    traced: means over the traced passes, except ``n_max``, the ratios and
    the overhead, which is the traced less the untraced median pass."""
    traced = [p["wall_s"] for p in passes if p["traced"]]
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    n = max(len(traced), 1)
    times = self_times(tracer.spans)
    out = {}
    for name in SPAN_NAMES:
        calls, self_s = times.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls / n
        out[f"{name}.self_s"] = self_s / n
    counts = tracer.counts
    for key in ("eigen.leading_eigenpair.dense_bytes", "modularity.build_modularity_matrix.bytes",
                "mspec.subdivision_matrix.bytes", "mspec.refine_cut.flips",
                "io.save_result.bytes", "io.load.bytes",
                "mspec.divisions.attempted", "mspec.divisions.applied"):
        out[key] = counts[key] / n
    out["eigen.leading_eigenpair.n_max"] = counts["eigen.leading_eigenpair.n_max"]
    attempted = counts["mspec.divisions.attempted"]
    out["mspec.divisions.applied_ratio"] = (
        counts["mspec.divisions.applied"] / attempted if attempted else 0.0)
    for prefix in ("mspec", "baselines.mlouv", "baselines.smean", "baselines.sfull"):
        detections = counts[f"{prefix}.detections"]
        out[f"{prefix}.q_mean"] = counts[f"{prefix}.q_sum"] / detections if detections else 0.0
    root_s = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    out["bench.self_s"] = (sum(traced) - root_s + times.get(BENCH, (0, 0.0))[1]) / n
    out["trace.wall_s"] = sum(traced) / n
    out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced)
                               if traced and untraced else 0.0)
    out["trace.passes"] = float(len(traced))
    return out
