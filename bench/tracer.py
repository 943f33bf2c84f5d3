"""In-memory span tracer that wraps the public functions of each antires module.

``Tracer.install`` replaces every binding of a traced function -- the
module attribute, its re-exports in ``antires`` and other modules, and
module-level dict entries such as ``NETWORK_PRESETS`` -- with one wrapper
that records a span (name, start, end, parent) and updates counters derived
from the call's result.  Two class attributes are wrapped as well:
``ModeNetwork.__init__`` (every network build, including
``dataclasses.replace``) and ``MotionEnsemble.draw``.  ``Tracer.uninstall``
puts every original back.

A span's self time is its duration minus the time covered by its direct
child spans.  Job spans (``Tracer.job``) are the roots; their self time is
time inside a job that no traced function covers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

LAYERS = ("cli", "presets", "network", "spectra", "fitting", "heterodyne", "oracle")

# (module, class, attribute, span name)
METHODS = (
    ("network", "ModeNetwork", "__init__", "network.ModeNetwork"),
    ("spectra", "MotionEnsemble", "draw", "spectra.MotionEnsemble.draw"),
)

# Functions whose calls and self time are reported as per-layer metrics.
REPORTED = (
    "cli.main",
    "presets.emitter_resonator",
    "network.steady_state_batch",
    "network.steady_state",
    "spectra.MotionEnsemble.draw",
    "spectra.ensemble_mean_amplitudes",
    "spectra.sweep",
    "spectra.resonances",
    "spectra.antiresonances",
    "spectra.detect_antiresonances_numeric",
    "spectra.lossy_component_identify",
    "spectra.write_spectrum_csv",
    "fitting.fit_nlls",
    "fitting.fit_arctan_phase",
    "fitting.fit_periodic_gaussian",
    "heterodyne.synthesize",
    "heterodyne.iq_windows",
    "heterodyne.demodulate",
    "heterodyne.accumulate_histogram",
    "oracle.lindblad_steady_state",
    "oracle.steady_density_matrix",
)

# (job name, span name, metric) -- counts the tracer must reproduce exactly
KNOWN_COUNTS = (
    ("stark-scan-motion", "spectra.MotionEnsemble.draw", "known.stark_scan.draw_calls"),
    ("oracle-check", "oracle.lindblad_steady_state", "known.oracle_check.lindblad_calls"),
    ("oracle-check", "oracle.steady_density_matrix", "known.oracle_check.sdm_calls"),
)


# -- counters computed from each call's result ------------------------------
# Complex LU of an n x n matrix costs 8n^3/3 real flops, the two triangular
# solves 8n^2; bytes count the matrix, right-hand side and solution once.

def _solves(count, systems: int, n: int) -> None:
    count["network.systems_solved"] += systems
    count["network.solve_flops_computed"] += systems * (8.0 * n**3 / 3.0 + 8.0 * n**2)
    count["network.solve_bytes_computed"] += systems * 16.0 * (n * n + 2 * n)


def _on_batch(result, count) -> None:
    _solves(count, result.shape[0], result.shape[1])


def _on_single(result, count) -> None:
    _solves(count, 1, result.amplitudes.size)


def _on_detect(result, count) -> None:
    count["spectra.detect.zeros_found"] += len(result)
    count["spectra.detect.boundary_zeros"] += sum(bool(z.at_boundary) for z in result)


def _on_density_matrix(result, count) -> None:
    dim = result.shape[0]  # 2 (cutoff + 1): emitter levels x photon levels
    count["oracle.cutoff_max"] = max(count["oracle.cutoff_max"], dim // 2 - 1)
    count["oracle.liouvillian_bytes_max_computed"] = max(
        count["oracle.liouvillian_bytes_max_computed"], 16.0 * dim**4)
    count["oracle.solve_flops_computed"] += 8.0 * dim**6 / 3.0


def _on_synthesize(result, count) -> None:
    count["heterodyne.samples_synthesized"] += result.size


def _on_iq_windows(result, count) -> None:
    count["heterodyne.windows_demodulated"] += len(result)


def _on_fit(result, count) -> None:
    count["fitting.lm_iterations"] += result.iterations
    count["fitting.lm_converged"] += bool(result.converged)


def _on_fit_error(exc, count) -> None:
    partial = getattr(exc, "result", None)
    if partial is not None:
        count["fitting.lm_iterations"] += partial.iterations


HOOKS: dict[str, Callable] = {
    "network.steady_state_batch": _on_batch,
    "network.steady_state": _on_single,
    "spectra.detect_antiresonances_numeric": _on_detect,
    "oracle.steady_density_matrix": _on_density_matrix,
    "heterodyne.synthesize": _on_synthesize,
    "heterodyne.iq_windows": _on_iq_windows,
    "fitting.fit_nlls": _on_fit,
}
ERROR_HOOKS: dict[str, Callable] = {"fitting.fit_nlls": _on_fit_error}


def traced_functions() -> dict[str, object]:
    """Span name -> function for every public function the tracer wraps.

    In ``cli`` only ``main`` is wrapped: the subcommand handlers are its
    body, so ``cli.main``'s self time is the CLI's own glue and writers.
    """
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"antires.{layer}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_") and (layer != "cli" or name == "main")):
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    """Records spans and counters while installed; see the module docstring.

    Span fields live in four parallel lists of strings and numbers rather
    than one object per span, which keeps the garbage collector from
    rescanning a hundred thousand spans while a workload runs.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # index of the enclosing span, -1 for a root
        self.jobs: dict[int, str] = {}  # root span index -> job name
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, object, object]] = []

    @property
    def spans(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))

    # -- installing -------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _wrap(self, name: str, fn: Callable) -> Callable:
        open_span, ends, stack = self._open, self.ends, self._stack
        counts, clock = self.counts, time.perf_counter
        hook, error_hook = HOOKS.get(name), ERROR_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = open_span(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[index] = clock()
                stack.pop()
                if error_hook is not None:
                    error_hook(exc, counts)
                raise
            ends[index] = clock()
            stack.pop()
            if hook is not None:
                hook(result, counts)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in traced_functions().items()}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "antires" or n.startswith("antires."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(module, attr, value, wrappers[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers and wrappers[id(item)][0] is item:
                            self._patch(value, key, item, wrappers[id(item)][1])
        for module_name, cls_name, attr, span_name in METHODS:
            cls = getattr(importlib.import_module(f"antires.{module_name}"), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if inspect.isfunction(original):
                self._patch(cls, attr, original, self._wrap(span_name, original))

    def _patch(self, owner, key, original, wrapper) -> None:
        if isinstance(owner, dict):
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def job(self, name: str) -> Iterator[None]:
        """Root span around one job; spans inside it belong to that job."""
        index = self._open(f"job.{name}")
        self.jobs[index] = name
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    # -- summarising ------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Span name -> calls, total_s and self_s."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), covered in zip(spans, child):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        return dict(out)

    def calls_in_job(self, job: str, span_name: str) -> int:
        roots: list[int] = []
        for index, parent in enumerate(self.parents):
            roots.append(index if parent < 0 else roots[parent])
        return sum(1 for name, root in zip(self.names, roots)
                   if name == span_name and self.jobs.get(root) == job)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything recorded so far: name -> (value, unit)."""
        summary = self.summary()
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        m: dict[str, tuple[float, str]] = {}
        for name in REPORTED:
            entry = summary.get(name, empty)
            m[f"{name}.calls"] = (entry["calls"], "count")
            m[f"{name}.self_s"] = (entry["self_s"], "s")
        build = summary.get("network.ModeNetwork", empty)
        m["network.ModeNetwork.builds"] = (build["calls"], "count")
        m["network.ModeNetwork.build_s"] = (build["self_s"], "s")
        for layer in LAYERS:
            m[f"{layer}.layer_self_s"] = (
                sum(e["self_s"] for n, e in summary.items() if n.startswith(f"{layer}.")), "s")

        c = self.counts
        solve_calls = (summary.get("network.steady_state_batch", empty)["calls"]
                       + summary.get("network.steady_state", empty)["calls"])
        sdm_calls = summary.get("oracle.steady_density_matrix", empty)["calls"]
        fits = summary.get("fitting.fit_nlls", empty)["calls"]
        zeros = c["spectra.detect.zeros_found"]
        m.update({
            "network.systems_solved": (c["network.systems_solved"], "count"),
            "network.systems_per_call": (_ratio(c["network.systems_solved"], solve_calls),
                                         "count"),
            "network.solve_flops_computed": (c["network.solve_flops_computed"], "flop"),
            "network.solve_bytes_computed": (c["network.solve_bytes_computed"], "B"),
            "spectra.detect.zeros_found": (zeros, "count"),
            "spectra.detect.boundary_ratio": (_ratio(c["spectra.detect.boundary_zeros"], zeros),
                                              "ratio"),
            "oracle.cutoff_max": (c["oracle.cutoff_max"], "count"),
            # each escalation returns the moments of its last solve only
            "oracle.useful_solve_ratio": (
                _ratio(summary.get("oracle.lindblad_steady_state", empty)["calls"], sdm_calls),
                "ratio"),
            "oracle.liouvillian_bytes_max_computed": (
                c["oracle.liouvillian_bytes_max_computed"], "B"),
            "oracle.solve_flops_computed": (c["oracle.solve_flops_computed"], "flop"),
            "heterodyne.samples_synthesized": (c["heterodyne.samples_synthesized"], "count"),
            "heterodyne.windows_demodulated": (c["heterodyne.windows_demodulated"], "count"),
            "fitting.lm_iterations": (c["fitting.lm_iterations"], "count"),
            "fitting.lm_converged_ratio": (_ratio(c["fitting.lm_converged"], fits), "ratio"),
        })
        for job, span_name, metric in KNOWN_COUNTS:
            m[metric] = (self.calls_in_job(job, span_name), "count")

        roots = [e for n, e in summary.items() if n.startswith("job.")]
        m["trace.uncovered_frac"] = (
            _ratio(sum(e["self_s"] for e in roots), sum(e["total_s"] for e in roots)), "ratio")
        m["trace.spans"] = (len(self.names), "count")
        return m

    def dump(self) -> dict:
        """Spans in a compact JSON-ready form."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "jobs": {str(k): v for k, v in self.jobs.items()},
            "spans": [[index[n], round(a, 9), round(b, 9), p] for n, a, b, p in self.spans],
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
