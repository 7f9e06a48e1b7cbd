"""Spans around the public functions of each qttf module, recorded from the
benchmark's side.

``Tracer.installed()`` wraps each function listed in ``FUNCTIONS`` in every
``qttf`` namespace that binds it (``measurement_matrices`` is bound in
``qttf``, ``qttf.fisher``, ``qttf.transfer``, ``qttf.estimation`` and
``qttf.cli``), and the validation (``__post_init__``) of the classes in
``CLASSES``; leaving the block restores the originals.  Library code looks
its callees up in its module's globals at call time, so a call from one
module into another lands in the callee's span.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children.  Every per-layer
metric is per set-up plus one pass: the totals of the traced set-up plus the
totals of the traced passes divided by their number, so counts repeat
exactly from run to run.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
import warnings
from collections import defaultdict

# name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "operators.build_basis.self_s": "s",
    "operators.haar_state_vectors.calls": "count",
    "operators.haar_state_vectors.states": "count",
    "operators.haar_state_vectors.self_s": "s",
    "operators.DensityMatrix.calls": "count",
    "operators.DensityMatrix.self_s": "s",
    "pom.Pom.calls": "count",
    "pom.Pom.self_s": "s",
    "pom.random_pom.self_s": "s",
    "pom.admix_white_noise.self_s": "s",
    "pom.load_pom.self_s": "s",
    "pom.save_pom.self_s": "s",
    "fisher.measurement_matrices.calls": "count",
    "fisher.measurement_matrices.self_s": "s",
    "fisher.probabilities.calls": "count",
    "fisher.probabilities.self_s": "s",
    "fisher.accuracy.calls": "count",
    "fisher.accuracy.self_s": "s",
    "transfer.auxiliary_matrices.calls": "count",
    "transfer.auxiliary_matrices.self_s": "s",
    "transfer.haar_moment_term.calls": "count",
    "transfer.haar_moment_term.k2.self_s": "s",
    "transfer.haar_moment_term.k3.self_s": "s",
    "transfer.haar_moment_term.k4.self_s": "s",
    "transfer.qttf_series.calls": "count",
    "transfer.qttf_series.self_s": "s",
    "transfer.qttf_series.convergence_warnings": "count",
    "transfer.qttf_monte_carlo.calls": "count",
    "transfer.qttf_monte_carlo.self_s": "s",
    "transfer.qttf_monte_carlo.samples_drawn": "count",
    "transfer.qttf_monte_carlo.samples_kept": "count",
    "transfer.qttf_monte_carlo.kept_frac": "1",
    "transfer.qttf_monte_carlo.samples_per_s": "1/s",
    "transfer.qttf_monte_carlo.var_per_sample": "1",
    "transfer.qttf_monte_carlo.heavy_tail_warnings": "count",
    "transfer.qttf_auto.calls": "count",
    "transfer.qttf_auto.route.closed_minimal": "count",
    "transfer.qttf_auto.route.closed_minimal_bases": "count",
    "transfer.qttf_auto.route.series": "count",
    "transfer.qttf_auto.route.monte_carlo": "count",
    "transfer.qttf_closed_minimal.rejected": "count",
    "transfer.qttf_closed_minimal_bases.rejected": "count",
    "estimation.mse_experiment.calls": "count",
    "estimation.mse_experiment.self_s": "s",
    "estimation.mse_experiment.trials": "count",
    "estimation.haar_mse_sweep.calls": "count",
    "estimation.haar_mse_sweep.self_s": "s",
    "cli.main.compare.self_s": "s",
    "cli.main.fig1.self_s": "s",
    "cli.main.fig2.self_s": "s",
    "cli.search_counterexample_pair.attempts": "count",
    "trace.overhead_frac": "1",
}

WARNING_COUNTS = {"ConvergenceWarning": "convergence_warnings", "HeavyTailWarning": "heavy_tail_warnings"}


def _arg(fn, param):
    """Getter for one argument of ``fn``, whether passed by position or keyword."""
    parameters = inspect.signature(fn).parameters
    index = list(parameters).index(param)
    default = parameters[param].default

    def get(args, kwargs):
        return args[index] if len(args) > index else kwargs.get(param, default)

    return get


# Hooks run after the call: (tracer, span, args, kwargs, result, exc, get) -> None,
# where ``get`` fetches the hook's argument of interest.


def _states(tracer, span, args, kwargs, result, exc, get):
    n_states = int(get(args, kwargs))
    tracer.count("operators.haar_state_vectors.states", n_states)
    if span.parent >= 0 and tracer.spans[span.parent].name == "transfer.qttf_monte_carlo":
        tracer.count("transfer.qttf_monte_carlo.samples_drawn", n_states)


def _moment_order(tracer, span, args, kwargs, result, exc, get):
    span.detail = f"k{get(args, kwargs)}"


def _monte_carlo(tracer, span, args, kwargs, result, exc, get):
    if result is not None:
        n_samples = int(get(args, kwargs))
        tracer.count("transfer.qttf_monte_carlo.samples_kept", n_samples)
        rse = result.std_error / result.value
        tracer.count("transfer.qttf_monte_carlo.time_rse2", (span.end - span.start) * rse * rse)


def _auto_route(tracer, span, args, kwargs, result, exc, get):
    if result is not None:
        tracer.count(f"transfer.qttf_auto.route.{result.method}")


def _rejected(error_name):
    def hook(tracer, span, args, kwargs, result, exc, get):
        if type(exc).__name__ == error_name:
            tracer.count(f"{span.name}.rejected")

    return hook


def _trials(tracer, span, args, kwargs, result, exc, get):
    tracer.count("estimation.mse_experiment.trials", int(get(args, kwargs)))


def _subcommand(tracer, span, args, kwargs, result, exc, get):
    argv = get(args, kwargs)
    span.detail = str(argv[0]) if argv else ""


def _attempts(tracer, span, args, kwargs, result, exc, get):
    if result is not None:
        tracer.count("cli.search_counterexample_pair.attempts", result[2]["attempts_used"])
    else:
        tracer.count("cli.search_counterexample_pair.attempts", int(get(args, kwargs)))


# (module, function, hook, argument the hook reads)
FUNCTIONS = (
    ("operators", "build_basis", None, None),
    ("operators", "haar_state_vectors", _states, "n_states"),
    ("pom", "random_pom", None, None),
    ("pom", "admix_white_noise", None, None),
    ("pom", "load_pom", None, None),
    ("pom", "save_pom", None, None),
    ("fisher", "measurement_matrices", None, None),
    ("fisher", "probabilities", None, None),
    ("fisher", "accuracy", None, None),
    ("transfer", "auxiliary_matrices", None, None),
    ("transfer", "haar_moment_term", _moment_order, "order"),
    ("transfer", "qttf_series", None, None),
    ("transfer", "qttf_monte_carlo", _monte_carlo, "n_samples"),
    ("transfer", "qttf_auto", _auto_route, None),
    ("transfer", "qttf_closed_minimal", _rejected("NotMinimallyCompleteError"), None),
    ("transfer", "qttf_closed_minimal_bases", _rejected("NotMinimalBasesError"), None),
    ("estimation", "mse_experiment", _trials, "n_trials"),
    ("estimation", "haar_mse_sweep", None, None),
    ("cli", "main", _subcommand, "argv"),
    ("cli", "search_counterexample_pair", _attempts, "attempts"),
)
# Classes whose validation (__post_init__) is a span of its own.
CLASSES = (("operators", "DensityMatrix"), ("pom", "Pom"))
# Layers that emit warnings; the tracer counts them instead of letting them through.
WARNING_LAYERS = ("transfer.qttf_series", "transfer.qttf_monte_carlo")


class Span:
    __slots__ = ("name", "detail", "start", "end", "parent", "phase")

    def __init__(self, name, start, parent, phase):
        self.name = name
        self.detail = ""
        self.start = start
        self.end = start
        self.parent = parent
        self.phase = phase

    @property
    def full_name(self) -> str:
        return f"{self.name}.{self.detail}" if self.detail else self.name


class Tracer:
    def __init__(self, q):
        self.q = q
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._counts: dict[tuple[str, str], float] = defaultdict(float)
        self._phase = ""
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self._counts[(self._phase, name)] += amount

    @contextlib.contextmanager
    def phase(self, name: str):
        previous, self._phase = self._phase, name
        try:
            yield
        finally:
            self._phase = previous

    @contextlib.contextmanager
    def installed(self):
        prefix = self.q.__name__
        namespaces = [
            module for name, module in list(sys.modules.items())
            if name == prefix or name.startswith(prefix + ".")
        ]
        try:
            for module_name, attr, hook, param in FUNCTIONS:
                original = getattr(getattr(self.q, module_name), attr)
                get = _arg(original, param) if param else None
                wrapper = self._wrap(f"{module_name}.{attr}", original, hook, get)
                for namespace in namespaces:
                    if getattr(namespace, attr, None) is original:
                        self._patches.append((namespace, attr, original))
                        setattr(namespace, attr, wrapper)
            for module_name, cls_name in CLASSES:
                cls = getattr(getattr(self.q, module_name), cls_name)
                original = cls.__dict__["__post_init__"]
                self._patches.append((cls, "__post_init__", original))
                cls.__post_init__ = self._wrap(f"{module_name}.{cls_name}", original, None, None)
            yield self
        finally:
            while self._patches:
                target, attr, original = self._patches.pop()
                setattr(target, attr, original)

    def _wrap(self, name, fn, hook, get):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        catches = name in WARNING_LAYERS

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            stack.append(len(spans))
            span = Span(name, clock(), parent, self._phase)
            spans.append(span)
            result = exc = None
            try:
                if catches:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    for item in caught:
                        kind = WARNING_COUNTS.get(item.category.__name__, "other_warnings")
                        self.count(f"{name}.{kind}")
                else:
                    result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                span.end = clock()
                stack.pop()
                if hook is not None:
                    hook(self, span, args, kwargs, result, exc, get)

        wrapper.__wrapped__ = fn
        return wrapper

    def _totals(self) -> dict[str, dict[str, float]]:
        """Additive totals per phase: calls, self time, and the hooks' counts."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, child_time in zip(self.spans, child):
            phase = totals[span.phase]
            duration = span.end - span.start
            phase[f"{span.name}.calls"] += 1
            phase[f"{span.full_name}.self_s"] += duration - child_time
            phase[f"{span.name}.total_s"] += duration
        for (phase, name), amount in self._counts.items():
            totals[phase][name] += amount
        return totals

    def metrics(self, n_passes: int) -> dict[str, float]:
        """Per-layer metrics per set-up plus one pass (see the module docstring)."""
        totals = self._totals()
        setup, timed = totals.get("setup", {}), totals.get("timed", {})

        def value(name):
            return setup.get(name, 0.0) + timed.get(name, 0.0) / n_passes

        out = {name: value(name) for name in LAYER_METRICS}
        mc = "transfer.qttf_monte_carlo"
        drawn, kept = value(f"{mc}.samples_drawn"), value(f"{mc}.samples_kept")
        mc_time = value(f"{mc}.total_s")
        out[f"{mc}.kept_frac"] = kept / drawn if drawn else 0.0
        rate = kept / mc_time if mc_time else 0.0
        out[f"{mc}.samples_per_s"] = rate
        # 1e4 * var_per_sample / samples_per_s = sum over calls of t * (rse / 0.01)**2,
        # the calls' time to 1 % relative standard error.
        out[f"{mc}.var_per_sample"] = rate * value(f"{mc}.time_rse2")
        out.pop("trace.overhead_frac")  # the caller measures it against an untraced run
        return out

    def write_spans(self, handle) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        for index, span in enumerate(self.spans):
            handle.write(
                json.dumps(
                    {
                        "id": index,
                        "parent": span.parent,
                        "phase": span.phase,
                        "name": span.full_name,
                        "start_s": span.start - origin,
                        "end_s": span.end - origin,
                    }
                )
                + "\n"
            )
