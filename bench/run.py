"""Benchmark of the qttf library: one workload per run, one JSON result line.

    python3 bench/run.py --workload series --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports ``qttf`` from ``src/`` (no
install needed) and uses numpy and the standard library only.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics from a traced run.  A run record (seed,
machine, versions, failures, output digest) goes to ``.bench_out/``, and so
do the spans of a traced run.  See ``bench/NOTES.md`` for the workloads and
what each metric is meant to expose.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy loads, so pin it before any import
# that could load numpy.  Every workload runs in one process on one BLAS thread.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORK_DIR = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_REPEATS = 7
MIN_PASSES = 10  # every op is repeated at least this often; its fastest repetition counts

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "s_to_1pct": "s",
    "peak_rss_mb": "MB",
}


class MissingSourceError(RuntimeError):
    """The checkout has no src/qttf to benchmark."""


def import_qttf():
    """Import qttf afresh from src/, dropping any copy imported before.

    Set-up is repeated within a run, so each repeat pays the package's own
    import (numpy stays loaded: it is not this repository's code).  The
    package does not import its CLI module, so that is imported explicitly.
    """
    if not os.path.isfile(os.path.join(SRC, "qttf", "__init__.py")):
        raise MissingSourceError(f"no qttf package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "qttf" or n.startswith("qttf.")]:
        del sys.modules[name]
    importlib.import_module("qttf.cli")
    return sys.modules["qttf"]


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting git; None outside a repository."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def _blas_build() -> object:
    try:
        config = np.show_config(mode="dicts")
        return config.get("Build Dependencies", {}).get("blas", config)
    except TypeError:  # numpy < 1.26 has no mode argument
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            np.show_config()
        return buffer.getvalue()


def run_record(seed) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
    }


def load_references() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def _turns():
    """Yield 0, 1, 2, ..., running each turn on the next CPU the process may
    use; closing the generator restores the process's CPU set."""
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for turn in itertools.count():
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
            yield turn
    finally:
        os.sched_setaffinity(0, cpus)


def _setup(workload, seed, refs, run_dir):
    """One full set-up: import qttf, build bases, generate and validate the
    measurements and, for cli, write their files."""
    started = time.perf_counter()
    q = import_qttf()
    ops = wl.prepare(q, workload, seed, tempfile.mkdtemp(dir=run_dir), refs)
    return q, ops, time.perf_counter() - started


class Passes:
    """Timed passes over a workload's ops, with every output checked.

    Every pass runs the same ops on the same inputs.  Other tenants of the
    host slow each vCPU by up to 40 % for stretches of one to ten seconds,
    independently per vCPU, so passes take turns on the CPUs the process may
    use and the latency metrics keep each op's fastest repetition.
    """

    def __init__(self):
        self.latencies: list[list[float]] = []  # per pass, one entry per op
        self.factors: list[float] = []  # per op: Outcome.to_1pct_factor
        self.classes: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str] = []

    def run(self, ops, seconds: float, min_passes: int) -> None:
        started = time.perf_counter()
        with contextlib.closing(_turns()) as turns:
            for turn in turns:
                self._one_pass(ops)
                if time.perf_counter() - started >= seconds and turn + 1 >= min_passes:
                    return

    def _one_pass(self, ops) -> None:
        latencies, factors = [], []
        digest = hashlib.sha256()
        for op in ops:
            self.attempted += 1
            began = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # an op that raises is a failed op, not a failed run
                elapsed = time.perf_counter() - began
                outcome = wl.Outcome()
                outcome.fail(f"raised {type(exc).__name__}: {exc}")
            else:
                elapsed = time.perf_counter() - began
                try:
                    outcome = op.check(result)
                except Exception as exc:  # unreadable output or missing reference
                    outcome = wl.Outcome()
                    outcome.fail(f"check raised {type(exc).__name__}: {exc}")
            latencies.append(elapsed)
            factors.append(outcome.to_1pct_factor)
            digest.update(op.name.encode())
            digest.update(",".join(float(v).hex() for v in outcome.values).encode())
            if outcome.failures:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{op.name}: {'; '.join(outcome.failures)}")
        if not self.latencies:
            self.factors = factors
            self.classes = [op.size_class for op in ops]
        self.latencies.append(latencies)
        self.digests.append(digest.hexdigest())

    def summary(self) -> dict:
        """Latency metrics from each op's fastest repetition (see the class docstring)."""
        best = [min(samples) for samples in zip(*self.latencies)]
        ranked = sorted(zip(best, self.classes))
        return {
            "wall_s": sum(best),
            "op_ms_p50": 1000 * float(np.percentile(best, 50)),
            "op_ms_p90": 1000 * float(np.percentile(best, 90)),
            "s_to_1pct": sum(t * f for t, f in zip(best, self.factors)),
            "p50_class": ranked[len(ranked) // 2][1],
            "p90_class": ranked[min(len(ranked) - 1, 9 * len(ranked) // 10)][1],
            "pass_walls_s": [sum(latencies) for latencies in self.latencies],
            "latencies_s": self.latencies,
        }


def run_benchmark(workload, seed, seconds, trace, refs=None, min_passes=MIN_PASSES):
    """Run one workload; return (result line, run record)."""
    refs = load_references() if refs is None else refs
    os.makedirs(WORK_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    record = run_record(seed)
    record.update(workload=workload, seconds=seconds, trace=trace)
    try:
        with warnings.catch_warnings():
            # The library warns when a series runs at or beyond its convergence
            # radius and when Monte Carlo samples look heavy tailed.  A user
            # silences that, as the CLI does; the tracer counts the warnings.
            warnings.simplefilter("ignore")
            setup_times = []
            with contextlib.closing(_turns()) as turns:
                for _ in zip(range(SETUP_REPEATS), turns):
                    q, ops, elapsed = _setup(workload, seed, refs, run_dir)
                    setup_times.append(elapsed)
            record["setup_times_s"] = setup_times
            plain = Passes()
            if not trace:
                plain.run(ops, seconds, min_passes)
                passes = [plain]
                summary = plain.summary()
                metrics = {
                    "setup_s": statistics.median(setup_times),
                    "wall_s": summary.pop("wall_s"),
                    "op_ms_p50": summary.pop("op_ms_p50"),
                    "op_ms_p90": summary.pop("op_ms_p90"),
                    "s_to_1pct": summary.pop("s_to_1pct"),
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                }
                record.update(summary)
                units = END_TO_END_UNITS
            else:
                plain.run(ops, seconds / 2, min_passes // 2)
                tracer = tracing.Tracer(q)
                traced = Passes()
                with tracer.installed():
                    with tracer.phase("setup"):
                        ops = wl.prepare(q, workload, seed, tempfile.mkdtemp(dir=run_dir), refs)
                    with tracer.phase("timed"):
                        traced.run(ops, seconds / 2, min_passes // 2)
                passes = [plain, traced]
                metrics = tracer.metrics(len(traced.latencies))
                metrics["trace.overhead_frac"] = (
                    traced.summary()["wall_s"] / plain.summary()["wall_s"] - 1.0
                )
                units = tracing.LAYER_METRICS
                record["spans_file"] = _write_spans(tracer, workload, seed)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record.update(
        passes=[len(p.latencies) for p in passes],
        ops_per_pass=len(ops),
        failures=[f for p in passes for f in p.failures],
        output_digest=passes[0].digests[0],
        outputs_repeat_exactly=len({d for p in passes for d in p.digests}) == 1,
        metrics=metrics,
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, record


def _write_spans(tracer, workload, seed) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        tracer.write_spans(handle)
    return os.path.relpath(path, ROOT)


def _write_record(record) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, default=str)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except MissingSourceError as exc:
        print(f"error: {exc}; run from the root of a qttf checkout", file=sys.stderr)
        return 2
    _write_record(record)
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {result['attempted']} ops, {result['failed']} failed, "
        f"passes {record['passes']}, digest {record['output_digest'][:16]}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
