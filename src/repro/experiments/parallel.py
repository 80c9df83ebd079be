"""Parallel execution of independent trace-driven experiments.

Every evaluation figure and ablation is a *sweep*: a set of mutually
independent simulations differing only in configuration (cloud size, Zipf
parameter, update rate, ...). This module fans such sweeps out over worker
processes:

* :class:`WorkloadSpec` — a small, picklable recipe for a (corpus, trace)
  pair. Workers rebuild the workload locally from seeds, so only the
  recipe crosses the process boundary, never multi-million-record traces.
* :class:`ExperimentSpec` — one runnable experiment: cloud configuration +
  workload recipe + run window. Built in the parent, executed anywhere.
* :func:`run_live` — a spec run through the one run body, ``run_experiment``
  (streamed workload, optional telemetry, live cloud kept); :func:`run_spec`
  is its detached, picklable form.
* :func:`run_sweep` — the driver: executes specs on a
  :class:`~concurrent.futures.ProcessPoolExecutor` with ``jobs`` workers,
  collects results in submission order, and logs per-run timing. ``jobs=1``
  (the default when ``REPRO_JOBS`` is unset) runs serially in-process; the
  serial path is also the automatic fallback when no process pool can be
  created (restricted environments, missing semaphores).

Determinism
-----------
All randomness in a run flows from seeds carried by the spec, and workers
rebuild corpus and trace with the exact derivations the parent would use.
``run_sweep`` therefore returns *value-identical* results for any job count
— asserted by ``tests/test_experiments_parallel.py``.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro.core.cloud import CacheCloud
from repro.core.config import CloudConfig
from repro.core.elastic import ElasticConfig
from repro.core.overload import OverloadConfig
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.faults.churn import ChurnSpec
from repro.faults.plan import FaultPlan
from repro.observe.flight import ArtifactError, FlightSpec
from repro.simulation.engine import Simulator
from repro.workload.documents import Corpus, build_corpus, seed_corpus_rng
from repro.workload.generator import SyntheticTraceGenerator, WorkloadConfig
from repro.workload.sydney import SydneyConfig, SydneyTraceGenerator
from repro.workload.trace import RequestStreamStats, Trace

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.observe.registry import Telemetry

logger = logging.getLogger(__name__)

#: Environment variable consulted when ``run_sweep`` gets no explicit job
#: count. ``REPRO_JOBS=4`` fans sweeps out over four worker processes;
#: ``REPRO_JOBS=0`` uses every available CPU.
JOBS_ENV_VAR = "REPRO_JOBS"

#: Workload generator configurations a spec can carry; the matching
#: generator class is chosen by type.
GeneratorConfig = Union[WorkloadConfig, SydneyConfig]


@dataclass(frozen=True)
class WorkloadSpec:
    """Picklable recipe for one (corpus, trace) pair.

    ``generator_config`` is a :class:`WorkloadConfig` (Zipf synthetic) or a
    :class:`SydneyConfig` (Sydney-like synthetic); the corpus is described
    by its size and seed only. Materialization is deterministic: the same
    spec yields the same workload in any process.
    """

    generator_config: GeneratorConfig
    corpus_documents: int
    corpus_seed: int

    def build_corpus(self) -> Corpus:
        """Materialize the document corpus."""
        return build_corpus(self.corpus_documents, seed_corpus_rng(self.corpus_seed))

    def build_generator(
        self,
    ) -> Union[SyntheticTraceGenerator, SydneyTraceGenerator]:
        """Build the trace generator without materializing any records.

        Both generator classes expose lazy ``requests()`` / ``updates()``
        iterators whose values are exactly what :meth:`build_trace` would
        list out — a streamed run and ``run_experiment`` over the
        materialized trace see identical records.
        """
        if isinstance(self.generator_config, SydneyConfig):
            return SydneyTraceGenerator(self.generator_config)
        return SyntheticTraceGenerator(self.generator_config)

    def build_trace(self) -> Trace:
        """Materialize the request/update trace."""
        return self.build_generator().build_trace()

    def materialize(self) -> Tuple[Corpus, Trace]:
        """Materialize both corpus and trace."""
        return self.build_corpus(), self.build_trace()


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: configuration + workload recipe + window.

    ``key`` labels the spec in logs and lets sweep builders map ordered
    results back to sweep coordinates. Specs are built in the parent and
    stay small — the corpus is built and the trace streamed in the worker.
    """

    key: object
    config: CloudConfig
    workload: WorkloadSpec
    duration: float
    warmup: Optional[float] = None
    #: Optional message-fault plan; both are frozen and picklable, so
    #: fault-injected sweeps parallelize like any other.
    fault_plan: Optional[FaultPlan] = None
    #: Optional churn timeline recipe (requires failure_resilience=True).
    churn: Optional[ChurnSpec] = None
    #: Attach the anti-entropy repair process.
    anti_entropy: bool = False
    #: Run the invariant auditor at the end and fill ``result.audit``.
    audit: bool = False
    #: Optional per-node service model (bounded queues + overload
    #: controller); frozen and picklable like the fault plan. Carried by
    #: the spec — never by :class:`CloudConfig` — so results embedding the
    #: config stay schema-identical with and without it.
    overload: Optional[OverloadConfig] = None
    #: Optional elastic sizing policy (requires ``overload`` and
    #: ``failure_resilience=True``); frozen and picklable like the rest.
    elastic: Optional[ElasticConfig] = None
    #: Optional flight-recorder recipe (:mod:`repro.observe.flight`); the
    #: worker builds the recorder and streams the windowed artifact to
    #: ``flight.path`` (or keeps it in memory, for a runner that reads
    #: ``result.cloud.flight.log``). Same-seed runs produce byte-identical
    #: artifacts at any ``--jobs`` count.
    flight: Optional[FlightSpec] = None


@dataclass
class FailedRun:
    """Placeholder result for a spec that failed on both attempts.

    Sweeps report failures positionally instead of aborting: the slot that
    would hold the :class:`ExperimentResult` holds a :class:`FailedRun`
    carrying the spec key and the final error.
    """

    key: object
    error: str
    error_type: str


#: Result type produced by a sweep's runner callable. The default runner
#: (:func:`run_spec`) yields :class:`ExperimentResult`; custom runners may
#: return their own picklable result records (e.g. the overload sweep's
#: per-point summaries), and :func:`run_sweep` is generic over that type.
R = TypeVar("R")


def run_live(
    spec: ExperimentSpec,
    telemetry: Optional["Telemetry"] = None,
    on_attached: Optional[Callable[[CacheCloud, Simulator], None]] = None,
) -> ExperimentResult:
    """Execute one spec in-process; the result keeps the live cloud.

    The spec adapter of :func:`~repro.experiments.runner.run_experiment`,
    which builds the cloud and attaches every plane. The workload is
    streamed — the trace is never held as a list, and the counting wrapper
    preserves ``unique_request_docs`` at O(corpus) state; the records are
    exactly what :meth:`WorkloadSpec.build_trace` would list out.

    ``telemetry`` attaches an observability registry; ``on_attached`` is
    ``run_experiment``'s hook, which sees the fully attached cloud before
    the first record (e.g. to hook the elastic controller). :func:`run_spec`
    ships the detached result; a runner of its own reads the live cloud's
    planes first and packages its own detached record.
    """
    generator = spec.workload.build_generator()
    counter = RequestStreamStats(generator.requests())
    result = run_experiment(
        spec.config,
        spec.workload.build_corpus(),
        counter,
        generator.updates(),
        duration=spec.duration,
        warmup=spec.warmup,
        fault_plan=spec.fault_plan,
        churn=spec.churn,
        anti_entropy=spec.anti_entropy,
        audit=spec.audit,
        telemetry=telemetry,
        overload=spec.overload,
        elastic=spec.elastic,
        flight=spec.flight.build() if spec.flight else None,
        on_attached=on_attached,
    )
    result.unique_request_docs = counter.unique_docs
    return result


def run_spec(spec: ExperimentSpec) -> ExperimentResult:
    """Execute one spec; returns a detached (cloud-free, picklable) result."""
    return run_live(spec).detached()


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a job count: explicit value > ``REPRO_JOBS`` env > 1.

    ``0`` or a negative value (from either source) means "all CPUs".
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV_VAR} must be an integer, got {raw!r}"
                ) from None
        else:
            jobs = 1
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def _sweep_signature(
    specs: List[ExperimentSpec], runner: Callable[..., object]
) -> str:
    """Content digest identifying a sweep for checkpoint compatibility.

    Built from the runner's qualified name and every spec's ``repr`` (specs
    are frozen dataclasses, so the repr is a faithful value rendering). A
    checkpoint written under a different signature must not be resumed —
    positional results would silently mismatch their specs.
    """
    parts = [getattr(runner, "__qualname__", repr(runner))]
    parts.extend(repr(spec) for spec in specs)
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


#: First record of every checkpoint file.
_CHECKPOINT_KIND = "repro-sweep-checkpoint-v1"


def _load_checkpoint(path: Path, signature: str) -> Dict[int, object]:
    """Read completed (index, result) records from a checkpoint file.

    Returns an empty mapping when the file does not exist. Raises
    :class:`~repro.observe.flight.ArtifactError` (a :class:`ValueError`)
    naming the file when it is not a checkpoint, was written for a
    different sweep, or holds a record that is not an ``(index, result)``
    pair or does not unpickle. The one exception is the tail a crash tore
    mid-append (the stream runs out, or stops parsing as a pickle): it is
    dropped — and cut off the file, so what the resumed sweep appends
    follows the last complete record — and those runs simply re-execute.
    """
    completed: Dict[int, object] = {}
    if not path.exists():
        return completed
    with open(path, "r+b") as fh:
        try:
            header = pickle.load(fh)
        except Exception:  # pickle raises anything on bytes it did not write
            header = None
        if not isinstance(header, dict) or header.get("kind") != _CHECKPOINT_KIND:
            raise ArtifactError(f"{path} is not a sweep checkpoint file")
        if header.get("signature") != signature:
            raise ArtifactError(
                f"checkpoint {path} was written for a different sweep "
                "(signature mismatch); delete it or pass a fresh path"
            )
        while True:
            complete = fh.tell()
            try:
                index, result = pickle.load(fh)
                completed[int(index)] = result
            except (EOFError, pickle.UnpicklingError):
                break
            except Exception as exc:
                raise ArtifactError(
                    f"checkpoint {path}: unreadable record at byte {complete} "
                    f"({type(exc).__name__}: {exc}); delete it or pass a fresh path"
                ) from exc
        fh.truncate(complete)
    return completed


def _append_checkpoint(
    path: Path, signature: str, pending: List[int], local: int, result: object
) -> None:
    """Append the run at ``pending[local]`` to the checkpoint (the per-run hook).

    One pickle per completed run, below a header (kind + signature) written
    when the file is created; every append is flushed and fsynced, so a
    killed sweep loses at most the in-flight record. :class:`FailedRun`
    slots are never checkpointed — a resumed sweep retries them instead of
    replaying the failure.
    """
    if isinstance(result, FailedRun):
        return
    is_new = not path.exists()
    with open(path, "ab") as fh:
        if is_new:
            pickle.dump({"kind": _CHECKPOINT_KIND, "signature": signature}, fh)
        pickle.dump((pending[local], result), fh)
        fh.flush()
        os.fsync(fh.fileno())


def run_sweep(
    specs: Iterable[ExperimentSpec],
    jobs: Optional[int] = None,
    runner: Callable[[ExperimentSpec], R] = run_spec,  # type: ignore[assignment]
    checkpoint: Optional[Union[str, Path]] = None,
) -> List[Union[R, FailedRun]]:
    """Execute every spec; returns results in spec order.

    ``jobs`` is resolved through :func:`resolve_jobs` (explicit value, then
    the ``REPRO_JOBS`` environment variable, then serial). With ``jobs > 1``
    the specs run on a process pool; results are collected in submission
    order, so the output is positionally aligned with ``specs`` regardless
    of completion order. The ``runner`` must be picklable for parallel
    execution (the default, :func:`run_spec`, is).

    A spec that raises is retried once serially in the parent; if the retry
    also fails its slot holds a :class:`FailedRun` instead of aborting the
    whole sweep. A broken worker *pool* (crashed process, missing
    semaphores) still falls back to full serial execution.

    ``checkpoint`` names a resume file: every successfully completed run is
    appended (with its position) as it is collected, and a later call with
    the same specs, runner, and path skips the recorded runs and executes
    only the remainder. The file is validated against a content signature of
    the sweep — resuming with different specs raises instead of mixing
    results. :class:`FailedRun` slots are never checkpointed, so failed runs
    are retried on resume. Because results are value-identical at any job
    count, a resumed sweep returns exactly what an uninterrupted one would.

    Identical seeds produce identical result values at any job count.
    """
    spec_list = list(specs)
    if not spec_list:
        return []

    restored: Dict[int, Union[R, FailedRun]] = {}
    pending = list(range(len(spec_list)))
    on_result: Optional[Callable[[int, object], None]] = None
    if checkpoint is not None:
        path, signature = Path(checkpoint), _sweep_signature(spec_list, runner)
        restored = _load_checkpoint(path, signature)  # type: ignore[assignment]
        logger.info("checkpoint %s: %d/%d runs restored", path, len(restored), len(pending))
        pending = [i for i in pending if i not in restored]
        on_result = partial(_append_checkpoint, path, signature, pending)

    fresh: List[Union[R, FailedRun]] = []
    if pending:
        pending_specs = [spec_list[i] for i in pending]
        workers = min(resolve_jobs(jobs), len(pending_specs))
        if workers > 1:
            try:
                fresh = _run_pool(pending_specs, workers, runner, on_result)
            except (OSError, PermissionError, ImportError, NotImplementedError,
                    BrokenProcessPool) as exc:
                logger.warning(
                    "process pool unavailable (%s: %s); falling back to serial "
                    "execution", type(exc).__name__, exc,
                )
                workers = 1
        if workers <= 1:
            attempts = [partial(runner, spec) for spec in pending_specs]
            fresh = _collect(pending_specs, runner, attempts, on_result)

    slots: List[Union[R, FailedRun]] = [None] * len(spec_list)  # type: ignore[list-item]
    for index, result in restored.items():
        slots[index] = result
    for index, result in zip(pending, fresh):
        slots[index] = result
    return slots


def _retry_serially(
    spec: ExperimentSpec,
    runner: Callable[[ExperimentSpec], R],
    first_error: BaseException,
) -> Union[R, FailedRun]:
    """One serial retry of a failed spec; reports a FailedRun on re-failure."""
    logger.error(
        "sweep run %r failed (%s: %s); retrying once serially",
        spec.key, type(first_error).__name__, first_error,
    )
    try:
        return runner(spec)
    except Exception as exc:
        logger.error(
            "sweep run %r failed again (%s: %s); reporting it as a FailedRun",
            spec.key, type(exc).__name__, exc,
        )
        return FailedRun(
            key=spec.key, error=str(exc), error_type=type(exc).__name__
        )


def _collect(
    specs: List[ExperimentSpec],
    runner: Callable[[ExperimentSpec], R],
    attempts: List[Callable[[], R]],
    on_result: Optional[Callable[[int, object], None]],
    fatal: Tuple[Type[BaseException], ...] = (),
) -> List[Union[R, FailedRun]]:
    """The one collection loop: a result per spec, in spec order.

    ``attempts[i]()`` produces spec ``i``'s result — by running it (serial)
    or by waiting on its future (pool). One that raises is retried once
    with ``runner`` in this process, unless the error is ``fatal`` (the
    pool itself died: the caller falls back to serial). ``on_result`` sees
    ``(position, result)`` as each one lands (the checkpoint hook).
    """
    results: List[Union[R, FailedRun]] = []
    start = time.perf_counter()
    for index, (spec, attempt) in enumerate(zip(specs, attempts)):
        try:
            result: Union[R, FailedRun] = attempt()
        except fatal:
            raise
        except Exception as exc:
            result = _retry_serially(spec, runner, exc)
        results.append(result)
        if on_result is not None:
            on_result(index, result)
        logger.info(
            "sweep run %d/%d %r: collected at +%.2fs",
            index + 1, len(specs), spec.key, time.perf_counter() - start,
        )
    return results


def _run_pool(
    specs: List[ExperimentSpec],
    workers: int,
    runner: Callable[[ExperimentSpec], R],
    on_result: Optional[Callable[[int, object], None]] = None,
) -> List[Union[R, FailedRun]]:
    """Results from a process pool (the seam tests replace to break it)."""
    with ProcessPoolExecutor(max_workers=workers) as pool:
        attempts = [pool.submit(runner, spec).result for spec in specs]
        logger.info("sweep: %d runs on %d worker processes", len(specs), workers)
        return _collect(specs, runner, attempts, on_result, (BrokenProcessPool,))
