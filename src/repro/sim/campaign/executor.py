"""Campaign executor: retry/quarantine over one worker engine,
memoized on disk.

``run_jobs`` is the single entry point every harness routes through:

1. look each job up in the :class:`ResultStore` (cache hit = no sim);
2. run the misses — serially in-process (``workers <= 1``) or on the
   lease-based :class:`~repro.sim.campaign.pool.WorkerPool`
   (``REPRO_JOBS`` env, ``--jobs`` flag), which parallel runs must
   match bit-for-bit because every simulation is deterministic;
3. persist each fresh result, in this process, before reporting it.

Fault tolerance (the same engine and policy ``repro serve`` uses):

* **Leased workers** — every dispatched job is covered by a lease that
  a busy worker's heartbeat renews.  A killed worker (SIGKILL, SIGSEGV,
  OOM) is reaped and replaced, and only the job it held is re-run as a
  ``WorkerLost`` attempt; a silent one loses its lease after
  ``REPRO_LEASE_TTL`` (``LeaseExpired``).
* **Retry + quarantine** — transient failures (``JobTimeout``, lost
  workers, expired leases, ``OSError``) are retried up to ``retries``
  times (``REPRO_RETRIES`` / ``--retries``) with deterministic
  exponential backoff; permanent failures (a simulator assertion) and
  jobs that exhaust the budget are *quarantined*: the grid keeps going
  and the job ends in a typed
  :class:`~repro.sim.campaign.journal.JobReceipt` (outcome, attempts,
  error classes, traceback tails, wall time) on
  ``CampaignReport.receipts`` and in the campaign journal.
  :meth:`JobAttempts.failed` is that policy, for every driver.
* **Resume + graceful drain** — every receipt is journalled next to
  the result store; SIGINT/SIGTERM stop dispatching, let in-flight
  jobs finish, journal what is missing and return a partial report
  (``report.interrupted``), so ``campaign run --resume`` picks up
  exactly the missing cells.
* **Best-effort persistence** — a ``ResultStore.put`` that fails
  (ENOSPC, EROFS) degrades to a logged warning and in-memory
  operation; a campaign whose simulations succeeded never crashes on
  the way to disk.

Deterministic fault injection for all of the above lives in
:mod:`repro.sim.faults` (``REPRO_FAULT_INJECT``); the executor arms
the plan for the duration of the run and consumes job faults at
dispatch time, so a given plan always hits the same cells.

Workers transport statistics as ``SimStats.to_dict()`` payloads, the
same representation the store persists.  A per-job timeout (SIGALRM
in the process running the job) marks the job failed instead of
letting a wedged simulation hang the campaign: leases cannot, because
a wedged worker keeps heartbeating from its beat thread.
"""

from __future__ import annotations

import errno
import json
import math
import os
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.defaults import env_float, env_int
from repro.obs import PhaseProfile, log, profile_enabled
from repro.pipeline.stats import SimStats
from repro.sim import faults
from repro.sim.campaign.job import Job
from repro.sim.campaign.journal import CampaignJournal, JobReceipt
from repro.sim.campaign.store import ResultStore


def default_workers() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1 = serial)."""
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def default_retries() -> int:
    """Transient-failure retries per job (``REPRO_RETRIES``, default 1
    — one free retry covers the overwhelmingly common lost-worker /
    flaky-disk case without masking persistent breakage)."""
    return max(0, env_int("REPRO_RETRIES", 1))


def default_backoff() -> float:
    """Base seconds of the deterministic exponential retry backoff
    (``REPRO_RETRY_BACKOFF``, default 0.1; attempt ``k`` waits
    ``base * 2**(k-1)`` capped at 5s)."""
    return max(0.0, env_float("REPRO_RETRY_BACKOFF", 0.1))


def _backoff_seconds(attempt: int, base: float) -> float:
    """Deterministic (no jitter: replayability beats thundering-herd
    concerns inside one process) exponential backoff, capped at 5s."""
    if base <= 0.0 or attempt <= 0:
        return 0.0
    return min(5.0, base * (2.0 ** (attempt - 1)))


def cache_enabled_by_default() -> bool:
    """The result cache is on unless ``REPRO_NO_CACHE`` is truthy
    (any value except the usual falsy spellings disables it)."""
    return os.environ.get("REPRO_NO_CACHE", "").lower() in (
        "", "0", "false", "no", "off")


class CampaignError(RuntimeError):
    """At least one job failed (or timed out)."""


class CampaignInterrupted(CampaignError):
    """A SIGINT/SIGTERM drained the campaign before it completed.

    Raised by harnesses that need a *complete* grid
    (:func:`repro.sim.experiments.run_grid`) when the underlying
    ``run_jobs`` returned a partial report; carries the signal name so
    the CLI can exit with the conventional ``128 + signum`` status."""

    def __init__(self, signal_name: str, message: str) -> None:
        super().__init__(message)
        self.signal_name = signal_name


class JobTimeout(Exception):
    """Raised in the process running a job when its SIGALRM fires."""


class WorkerLost(Exception):
    """A worker process died (SIGKILL/SIGSEGV/OOM) with this job in
    flight — always transient: the job itself may be innocent."""


#: Exception classes the retry policy treats as transient.  Everything
#: else (simulator assertions, config ``ValueError``\ s) is permanent:
#: deterministic simulations fail deterministically, so re-running a
#: permanent failure can only burn time — quarantine immediately.
TRANSIENT_ERRORS = (JobTimeout, WorkerLost, OSError)


def classify_error(exc: BaseException) -> str:
    """``"transient"`` (worth retrying) or ``"permanent"``."""
    return ("transient" if isinstance(exc, TRANSIENT_ERRORS)
            else "permanent")


def _format_error(exc: BaseException) -> str:
    """One receipt line per failed attempt: class, message, and the
    innermost traceback frames, formatted in the process that ran the
    job (a worker's frames would not survive the trip back)."""
    text = f"{type(exc).__name__}: {exc}"
    frames = traceback.extract_tb(exc.__traceback__)[-3:]
    if frames:
        text += " | " + " / ".join(
            f"{frame.name} ({os.path.basename(frame.filename)}:"
            f"{frame.lineno})" for frame in frames)
    return text


@dataclass(frozen=True)
class Failure:
    """One failed attempt as the retry policy sees it."""

    error_class: str
    message: str
    transient: bool

    @classmethod
    def of(cls, exc: BaseException) -> "Failure":
        return cls(type(exc).__name__, _format_error(exc),
                   classify_error(exc) == "transient")


@dataclass
class JobAttempts:
    """Attempt bookkeeping for one job, shared by every driver of the
    engine (serial and pooled ``run_jobs``, ``repro serve``)."""

    label: str = ""
    attempts: int = 0
    errors: List[str] = field(default_factory=list)
    error_class: Optional[str] = None
    started: float = 0.0
    wall: float = 0.0

    def begin(self, now: float) -> None:
        self.attempts += 1
        self.started = now

    def end(self, now: float) -> None:
        if self.started:
            self.wall += now - self.started
            self.started = 0.0

    def failed(self, failure: Failure, retries: int) -> bool:
        """The retry/quarantine policy: record a failed attempt and
        return True to retry it, False to quarantine the job."""
        self.errors.append(failure.message)
        self.error_class = failure.error_class
        return failure.transient and self.attempts <= retries

    def receipt(self, key: str, quarantined: bool = False) -> JobReceipt:
        outcome = ("quarantined" if quarantined
                   else "retried" if self.attempts > 1 else "ok")
        return JobReceipt(
            key=key, label=self.label, outcome=outcome,
            attempts=self.attempts, error_class=self.error_class,
            errors=list(self.errors), wall_seconds=self.wall)


@dataclass
class CampaignReport:
    """Outcome of one ``run_jobs`` call."""

    results: Dict[str, SimStats] = field(default_factory=dict)
    hits: int = 0                      # cells served from the store
    simulated: int = 0                 # cells actually simulated
    failures: Dict[str, str] = field(default_factory=dict)
    #: Typed per-job receipts (cache key -> JobReceipt) for every job
    #: that ran this campaign (hits never ran, so carry no receipt).
    receipts: Dict[str, JobReceipt] = field(default_factory=dict)
    retried_attempts: int = 0          # attempts beyond each job's first
    quarantined: int = 0               # jobs that ended quarantined
    store_errors: int = 0              # best-effort persistence failures
    #: Signal name (``"SIGINT"``/``"SIGTERM"``) when the run drained
    #: early instead of completing; None on a full run.
    interrupted: Optional[str] = None
    # Checkpoint-store provenance, aggregated over the *fresh* cells
    # (result-cache hits never touched the simulator this run).
    checkpoint_hits: int = 0           # windows replayed from storage
    ff_executed: int = 0               # functional instructions run
    ff_skipped: int = 0                # functional instructions replayed
    #: Merged phase profile over the fresh cells (``repro.obs``), or
    #: None when profiling was off for this run.
    phase: Optional[PhaseProfile] = None

    def stats_for(self, job: Job) -> SimStats:
        key = job.cache_key()
        if key not in self.results:
            raise CampaignError(
                f"no result for {job.label}: "
                f"{self.failures.get(job.label, 'job was not run')}")
        return self.results[key]


def _alarm_usable() -> bool:
    """SIGALRM timeouts need a Unix main thread (always true in the
    pool's worker processes; best-effort on the serial in-process path)."""
    return (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread())


def _apply_injected_fault(inject: Optional[str], label: str) -> None:
    """Execute a job fault the parent attached at dispatch time
    (:mod:`repro.sim.faults`); runs at the top of the job body."""
    if inject is None:
        return
    if inject == "worker-kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if inject == "timeout":
        raise JobTimeout(f"{label}: injected job timeout")
    if inject == "oserror":
        raise OSError(errno.EIO, f"injected I/O fault in {label}")
    if inject == "assert":
        raise AssertionError(f"injected simulator assertion in {label}")
    raise ValueError(f"unknown injected fault {inject!r}")


def _execute_job(job: Job, timeout: Optional[float],
                 cache_dir: Optional[os.PathLike] = None,
                 checkpoints: Optional[bool] = None,
                 profile: bool = False,
                 inject: Optional[str] = None) -> Tuple[dict, Optional[dict]]:
    """Worker body: simulate one job, return
    ``(serialized statistics, serialized phase profile or None)``.

    Routed through :func:`repro.sim.runner.simulate` so configs with a
    recorded sampling schedule (``sample_mode != "full"``) run sampled
    in the worker — sampled cells shard across processes and cache
    exactly like full-detail ones (their cache keys differ because the
    sampling fields perturb ``SimConfig.cache_key``).

    ``checkpoints`` threads the campaign's checkpoint-store decision
    into the sampled engine: every worker opens the store rooted at the
    run's ``cache_dir`` (so the grid's cells share one functional
    execution), ``False`` forces the store-free oracle path.
    """
    from repro.sim.artifacts import ArtifactStore
    from repro.sim.runner import simulate
    from repro.workloads import get_program

    artifacts = ArtifactStore(cache_dir) if checkpoints else False
    prof = PhaseProfile() if profile else None
    t0 = time.monotonic() if profile else 0.0

    use_alarm = bool(timeout) and _alarm_usable()
    if timeout and not use_alarm:
        # Satellite fix: silently running without the watchdog made a
        # hung job undiagnosable — say so once per job instead.
        log(f"repro: per-job timeout disabled for {job.label}: SIGALRM "
            f"needs a Unix main thread (a wedged simulation will hang "
            f"this campaign)", "warn")
    previous = None
    handler_swapped = False
    try:
        if use_alarm:
            armed = max(1, math.ceil(timeout))

            def _on_alarm(signum, frame):
                raise JobTimeout(f"{job.label} exceeded {armed}s")
            previous = signal.signal(signal.SIGALRM, _on_alarm)
            handler_swapped = True
            signal.alarm(armed)
        _apply_injected_fault(inject, job.label)
        stats = simulate(get_program(job.workload, job.seed), job.config,
                         max_instructions=job.instructions,
                         artifacts=artifacts, profile=prof)
        if prof is not None:
            # Total wall clock per job; the parent derives queue-wait
            # (pool latency + result transport) from it.
            prof.add("job", time.monotonic() - t0)
            return stats.to_dict(), prof.to_dict()
        return stats.to_dict(), None
    finally:
        # Pool workers are reused across jobs: the alarm MUST be
        # cancelled on every exit (success, timeout or crash) or a fast
        # follow-up job would inherit the previous job's pending alarm
        # and be killed mid-flight.  Cancel strictly *before* restoring
        # the previous handler — the other order leaves a window where
        # a pending alarm fires into SIG_DFL and kills the worker.
        # (``handler_swapped`` is an explicit flag because ``previous``
        # is legitimately None when the prior handler was installed
        # from C.)
        if handler_swapped:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class _DrainGuard:
    """SIGINT/SIGTERM -> graceful drain: stop dispatching, finish (or
    cancel unstarted) in-flight work, journal the gap.  Installed only
    on the main thread (signal handlers are illegal elsewhere); a
    second signal restores default handling so a wedged drain can
    still be killed."""

    _SIGNALS = ("SIGINT", "SIGTERM")

    def __init__(self) -> None:
        self.triggered: Optional[str] = None
        self._previous: Dict[int, object] = {}

    def __enter__(self) -> "_DrainGuard":
        if threading.current_thread() is not threading.main_thread():
            return self
        for name in self._SIGNALS:
            signum = getattr(signal, name, None)
            if signum is None:
                continue
            try:
                self._previous[signum] = signal.signal(
                    signum, self._handle)
            except (ValueError, OSError):
                pass
        return self

    def _handle(self, signum, frame) -> None:
        self.triggered = signal.Signals(signum).name
        log(f"repro: {self.triggered} received: draining in-flight "
            f"jobs (again to abort immediately); resume with "
            f"`campaign run --resume`", "warn")
        try:                    # second signal = give up gracefully
            signal.signal(signum, self._previous.get(
                signum, signal.SIG_DFL))
        except (ValueError, OSError):
            pass

    def __exit__(self, *exc) -> bool:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass
        return False


def run_jobs(jobs: Sequence[Job], *,
             workers: Optional[int] = None,
             use_cache: Optional[bool] = None,
             cache_dir: Optional[os.PathLike] = None,
             timeout: Optional[float] = None,
             progress: Optional[Callable[[str], None]] = None,
             raise_on_error: bool = True,
             checkpoints: Optional[bool] = None,
             profile: Optional[bool] = None,
             retries: Optional[int] = None,
             resume: bool = False,
             fault_plan: Optional[faults.FaultPlan] = None
             ) -> CampaignReport:
    """Run ``jobs`` serially or on the worker pool, memoized on disk.

    ``workers=None`` reads ``REPRO_JOBS``; ``use_cache=None`` reads
    ``REPRO_NO_CACHE``; ``checkpoints=None`` reads
    ``REPRO_CHECKPOINTS`` (the sampled cells' checkpoint store, shared
    by all workers under ``cache_dir`` so an N-config grid pays
    functional execution once). Returns a :class:`CampaignReport`
    whose ``results`` maps every distinct job cache key to its
    statistics.

    ``retries=None`` reads ``REPRO_RETRIES`` (default 1): transient
    failures — ``JobTimeout``, a lost worker, an expired lease,
    ``OSError`` — are re-dispatched with deterministic backoff up to
    that many times, then quarantined; permanent failures quarantine
    immediately (:meth:`JobAttempts.failed`).
    Every executed job ends in a :class:`JobReceipt` on
    ``report.receipts`` and (when the cache is on) in the campaign
    journal next to the result store.

    ``resume=True`` marks this run as picking up an interrupted
    campaign (requires the cache: completed cells are recognised by
    their stored results) — purely additive: it logs and journals how
    much of the grid is already done before simulating the rest.

    ``fault_plan`` overrides the ``REPRO_FAULT_INJECT`` environment
    plan (:mod:`repro.sim.faults`); pass a plan directly in tests.

    ``profile=None`` reads ``REPRO_PROFILE``; when on, every fresh
    cell times its ff / warmup / detail / store phases
    (:mod:`repro.obs.profile`), the merged breakdown lands on
    ``report.phase`` and is folded into ``profile.json`` next to the
    result cache for ``campaign status --profile``.  Cached cells
    contribute nothing (they ran no simulator).
    """
    from repro.sim.artifacts import checkpoints_enabled
    workers = workers if workers is not None else default_workers()
    if use_cache is None:
        use_cache = cache_enabled_by_default()
    if checkpoints is None:
        checkpoints = checkpoints_enabled()
    if profile is None:
        profile = profile_enabled()
    if retries is None:
        retries = default_retries()
    backoff_base = default_backoff()
    plan = (fault_plan if fault_plan is not None
            else faults.FaultPlan.from_env())
    store = ResultStore(cache_dir)
    journal = CampaignJournal(store.cache_dir) if use_cache else None
    report = CampaignReport()
    if profile:
        report.phase = PhaseProfile()

    pending: Dict[str, Job] = {}
    for job in jobs:
        key = job.cache_key()
        if key in report.results or key in pending:
            continue                       # duplicate cell in the grid
        cached = store.get(key) if use_cache else None
        if cached is not None:
            report.results[key] = cached
            report.hits += 1
        else:
            pending[key] = job

    total = len(pending)
    done = 0
    states = {key: JobAttempts(job.label) for key, job in pending.items()}
    runnable = deque(pending)
    dispatches = 0                        # fault-plan dispatch ordinal

    if journal is not None and (pending or resume):
        journal.begin(total=len(report.results) + total,
                      pending=total, resume=resume)
    if resume:
        log(f"repro: resume: {report.hits} cell(s) already complete, "
            f"{total} missing")

    def _emit(line: str) -> None:
        nonlocal progress
        if progress is None:
            return
        try:
            progress(line)
        except BrokenPipeError:
            # The listener hung up (e.g. stderr piped into a pager
            # that exited); a dead progress feed must not be
            # recorded as a job failure.
            progress = None

    def _record_receipt(key: str, quarantined: bool = False) -> None:
        state = states[key]
        receipt = state.receipt(key, quarantined)
        report.receipts[key] = receipt
        report.retried_attempts += max(0, state.attempts - 1)
        if journal is not None:
            journal.record(receipt)

    def _finish(key: str, stats_dict: dict,
                prof_dict: Optional[dict] = None) -> None:
        nonlocal done
        job, state = pending[key], states[key]
        stats = SimStats.from_dict(stats_dict)
        report.results[key] = stats
        report.simulated += 1
        report.checkpoint_hits += stats.checkpoint_hits
        report.ff_executed += stats.ff_executed_instructions
        report.ff_skipped += stats.ff_skipped_instructions
        if report.phase is not None and prof_dict:
            report.phase.merge(prof_dict)
        if use_cache:
            try:
                store.put(key, stats, meta=job.to_dict())
            except OSError as exc:
                # Satellite fix: a full disk after a successful
                # simulation must not abort the campaign — the result
                # lives on in memory; only persistence is lost.
                report.store_errors += 1
                log(f"repro: result store write failed for "
                    f"{job.label} ({exc}); keeping the result "
                    f"in memory only", "warn")
        _record_receipt(key)
        done += 1
        _emit(f"[{done}/{total}] {job.label}"
              + (f" (attempt {state.attempts})"
                 if state.attempts > 1 else ""))

    def _quarantine(key: str) -> None:
        nonlocal done
        state = states[key]
        report.failures[state.label] = state.errors[-1]
        report.quarantined += 1
        _record_receipt(key, quarantined=True)
        done += 1
        log(f"repro: quarantined {state.label} after {state.attempts} "
            f"attempt(s): {state.errors[-1]}", "warn")
        _emit(f"[{done}/{total}] {state.label} quarantined "
              f"({state.error_class})")

    def _settle(key: str, result: Optional[tuple],
                failure: Optional[Failure]) -> None:
        """Settle one ended attempt: keep it, retry it or quarantine."""
        if key in report.receipts:
            return                          # a zombie's late duplicate
        state = states[key]
        state.end(time.monotonic())
        if failure is None:
            _finish(key, *result)
        elif state.failed(failure, retries):
            log(f"repro: retrying {state.label} (attempt "
                f"{state.attempts} failed: {failure.message})", "debug")
            runnable.append(key)
        else:
            _quarantine(key)

    def _next_task() -> Optional[Tuple[str, Job, Optional[str]]]:
        """Start an attempt of the next runnable job, after its retry
        backoff: ``(key, job, injected fault)``, or None."""
        nonlocal dispatches
        while runnable:
            key = runnable.popleft()
            if key in report.receipts:
                continue                    # settled by a zombie's result
            state = states[key]
            if state.attempts:
                time.sleep(_backoff_seconds(state.attempts, backoff_base))
            dispatches += 1
            state.begin(time.monotonic())
            return (key, pending[key],
                    plan.job_fault(dispatches) if plan else None)
        return None

    with faults.active(plan), _DrainGuard() as drain:
        if workers <= 1:
            while not drain.triggered:
                task = _next_task()
                if task is None:
                    break
                key, job, inject = task
                try:
                    if inject == "worker-kill":
                        # Serial has no worker to kill: degrade to the
                        # same transient classification a lost worker
                        # gets, so serial plans stay meaningful.
                        raise WorkerLost(
                            f"injected worker-kill for {job.label}")
                    result = _execute_job(job, timeout, cache_dir,
                                          checkpoints, profile, inject)
                except Exception as exc:        # noqa: BLE001
                    _settle(key, None, Failure.of(exc))
                else:
                    _settle(key, result, None)
        elif pending:
            from repro.sim.campaign.pool import WorkerPool
            pool = WorkerPool(min(workers, total), cache_dir=cache_dir,
                              checkpoints=checkpoints, timeout=timeout,
                              profile=profile, plan=plan)
            submitted = time.monotonic()
            pool.start()
            try:
                while done < total and not drain.triggered:
                    for worker_id in pool.idle():
                        task = _next_task()
                        if task is None:
                            break
                        pool.send(worker_id, *task)
                    for settled in pool.collect(pool.receive(pool.tick)):
                        _settle(*settled)
                # Graceful drain: dispatch nothing more, let the leased
                # jobs finish and keep their results.
                while drain.triggered and len(pool.leases):
                    for settled in pool.collect(pool.receive(pool.tick)):
                        _settle(*settled)
            finally:
                pool.stop()
            if report.phase is not None:
                # Queue-wait: worker-slot seconds the pool did NOT
                # spend inside job bodies — fork/dispatch latency,
                # result transport and load imbalance.  (Per-job idle
                # is not observable from the parent while jobs overlap,
                # so account it in bulk.)
                wall = time.monotonic() - submitted
                busy = report.phase.seconds.get("job", 0.0)
                idle = wall * min(workers, total) - busy
                if idle > 0:
                    report.phase.add("queue-wait", idle,
                                     count=dispatches)

        if drain.triggered:
            report.interrupted = drain.triggered
            missing = [job.label for key, job in pending.items()
                       if key not in report.results
                       and key not in report.receipts]
            if journal is not None:
                journal.interrupted(drain.triggered, missing)
            log(f"repro: campaign drained on {drain.triggered}: "
                f"{done}/{total} pending cell(s) finished, "
                f"{len(missing)} missing (rerun with --resume)", "warn")

    if report.phase is not None and report.phase.seconds:
        _persist_profile(store, report.phase)
    if journal is not None and not drain.triggered \
            and not report.failures:
        # Successful completion: superseded begin/receipt pairs (from
        # retries, resumes and earlier campaigns in this cache dir) are
        # dead provenance — compact them away so journal.jsonl stops
        # growing unboundedly.  Interrupted or failing runs keep the
        # full history for post-mortems.
        dropped = journal.compact()
        if dropped:
            log(f"repro: compacted campaign journal "
                f"({dropped} superseded line(s) dropped)", "debug")
    if report.failures and raise_on_error:
        detail = "; ".join(f"{label}: {err}"
                           for label, err in report.failures.items())
        raise CampaignError(f"{len(report.failures)} job(s) failed: "
                            f"{detail}")
    return report


def profile_path(cache_dir: Optional[os.PathLike] = None):
    """Where a campaign's merged phase profile lives (next to the
    result cache, so ``campaign clear`` semantics stay obvious)."""
    return ResultStore(cache_dir).cache_dir / "profile.json"


def _persist_profile(store: ResultStore, phase: PhaseProfile) -> None:
    """Fold this run's merged profile into the store's sidecar
    ``profile.json`` (best effort — profiling must never fail a run).
    The read-merge-rewrite holds the store's lock, so two campaigns
    sharing a cache dir neither lose an update nor tear the temp
    file."""
    path = store.cache_dir / "profile.json"
    try:
        with store._locked():
            merged = PhaseProfile()
            try:
                with path.open("r", encoding="utf-8") as fh:
                    merged.merge(json.load(fh))
            except (OSError, ValueError):
                pass
            merged.merge(phase)
            tmp = path.with_suffix(".json.tmp")
            with tmp.open("w", encoding="utf-8") as fh:
                json.dump(merged.to_dict(), fh, indent=1, sort_keys=True)
            tmp.replace(path)
    except OSError:
        pass


def run_job(job: Job, **kwargs) -> SimStats:
    """Convenience wrapper: run a single job through the campaign path."""
    return run_jobs([job], **kwargs).stats_for(job)


__all__ = ["CampaignError", "CampaignInterrupted", "CampaignReport",
           "Failure", "JobAttempts", "JobReceipt",
           "JobTimeout", "TRANSIENT_ERRORS", "WorkerLost",
           "cache_enabled_by_default", "classify_error",
           "default_backoff", "default_retries", "default_workers",
           "profile_path", "run_job", "run_jobs"]
