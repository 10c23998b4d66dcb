"""The lease-based worker pool: the campaign layer's one multi-worker
engine.

``run_jobs(workers >= 2)`` drives it in-process and ``repro serve``
drives it from the service spool; both own one :class:`WorkerPool` and
one dispatcher loop around it:

* **Workers** are forked processes, each with its own task queue, that
  run one job at a time through the job body
  (:func:`~repro.sim.campaign.executor._execute_job`, per-job SIGALRM
  watchdog included) and report every attempt as one event on the
  pool's single event queue: its serialized statistics and phase
  profile, or a :class:`~repro.sim.campaign.executor.Failure` whose
  message carries the worker-side traceback tail.
* **Leases** (:class:`~repro.sim.campaign.lease.LeaseTable`) cover
  every dispatched job.  A busy worker heartbeats every ``TTL/4``; a
  lease that ages past ``REPRO_LEASE_TTL`` settles its job as a
  transient ``LeaseExpired`` failure and the zombie is left alone.  A
  worker that dies (SIGKILL, SIGSEGV, OOM) is reaped, its leases settle
  as ``WorkerLost`` and a fresh worker is forked in its place.
* **The dispatcher waits on events.**  :meth:`WorkerPool.receive`
  blocks on the event queue and returns as soon as a result or beat
  arrives; its timeout (``min(0.25, TTL/8)`` s) only bounds how late a
  silent worker's death or an expired lease is noticed.

Results travel back to the dispatching process, which persists them:
workers never write the result store, so the ``put`` fault site fires
on one firing state.  Workers arm the dispatcher's fault plan as their
own copy, so worker-side sites (``heartbeat``, ``artifact-put``) fire
per worker; job faults ride in the task, consumed at dispatch.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import sys
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.obs import log
from repro.sim import faults
from repro.sim.campaign.executor import Failure, _execute_job
from repro.sim.campaign.lease import LeaseTable


class Settled(NamedTuple):
    """One finished attempt: ``result`` is ``(stats dict, profile dict
    or None)`` on success, else ``failure`` says why it failed."""

    key: str
    result: Optional[tuple]
    failure: Optional[Failure]


def _worker_main(worker_id: str, tasks, events, settings: tuple,
                 beat_interval: float, parent_pid: int,
                 plan: Optional[faults.FaultPlan]) -> None:
    """Pool worker: run each task through the job body, heartbeat while
    busy, report each attempt as one event.

    SIGINT is ignored (Ctrl-C reaches the whole process group; the
    dispatcher drains) and SIGTERM is left fatal.  An orphan check on
    the idle path makes a SIGKILLed dispatcher's workers exit on their
    own once their current job is done.
    """
    faults._PLAN = plan
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):
        pass
    busy = threading.Event()

    def _beats() -> None:
        while True:
            time.sleep(beat_interval)
            if not busy.is_set():
                continue                    # idle: liveness via is_alive
            try:
                faults.fire("heartbeat")
                events.put(("beat", worker_id, None, None))
            except OSError:
                pass                        # suppressed beat: stay silent

    threading.Thread(target=_beats, daemon=True).start()

    while True:
        try:
            task = tasks.get(timeout=1.0)
        except queue.Empty:
            if os.getppid() != parent_pid:
                return                      # dispatcher died: drain out
            continue
        if task is None:
            return
        key, job, inject = task
        busy.set()
        try:
            result = _execute_job(job, *settings, inject=inject)
        except Exception as exc:            # noqa: BLE001
            busy.clear()
            events.put(("fail", worker_id, key, Failure.of(exc)))
        else:
            busy.clear()
            events.put(("done", worker_id, key, result))


class _Worker:
    """Dispatcher-side view of one worker process."""

    __slots__ = ("process", "tasks", "busy")

    def __init__(self, process, tasks) -> None:
        self.process = process
        self.tasks = tasks
        self.busy: Optional[str] = None     # key in flight, if any


class WorkerPool:
    """``size`` forked workers under lease coverage."""

    def __init__(self, size: int, *,
                 cache_dir: Optional[os.PathLike] = None,
                 checkpoints: bool = False,
                 timeout: Optional[float] = None,
                 profile: bool = False,
                 plan: Optional[faults.FaultPlan] = None,
                 lease_ttl: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.size = max(1, size)
        self.leases = LeaseTable(lease_ttl, clock=clock)
        self.tick = min(0.25, max(0.01, self.leases.ttl / 8))
        self.beat_interval = max(0.01, self.leases.ttl / 4)
        self.respawns = 0
        self.workers: Dict[str, _Worker] = {}
        self._settings = (timeout, cache_dir, checkpoints, profile)
        self._plan = plan
        self._seq = 0
        # On Linux, fork shares the dispatcher's warm program cache with
        # the workers.  Elsewhere use the platform default (spawn):
        # macOS lists fork as available but fork-without-exec is unsafe
        # there.
        self._context = (multiprocessing.get_context("fork")
                         if sys.platform == "linux"
                         else multiprocessing.get_context())
        self._events = None

    def start(self) -> None:
        self._events = self._context.Queue()
        for _ in range(self.size):
            self._spawn()

    def _spawn(self) -> None:
        self._seq += 1
        worker_id = f"w{self._seq}"
        tasks = self._context.Queue()
        process = self._context.Process(
            target=_worker_main, name=f"repro-{worker_id}", daemon=True,
            args=(worker_id, tasks, self._events, self._settings,
                  self.beat_interval, os.getpid(), self._plan))
        process.start()
        self.workers[worker_id] = _Worker(process, tasks)

    def stop(self, grace: float = 2.0) -> None:
        """Ask every worker to exit after its current job, then join
        them (killing stragglers after ``grace`` seconds), so their
        resource usage lands in ``RUSAGE_CHILDREN``."""
        for worker in self.workers.values():
            try:
                worker.tasks.put(None)
            except (OSError, ValueError):
                pass
        for worker in self.workers.values():
            worker.process.join(grace)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
        self.workers.clear()

    # ------------------------------------------------------------------ #

    def idle(self) -> List[str]:
        return [worker_id for worker_id, worker in self.workers.items()
                if worker.busy is None]

    def alive(self) -> int:
        return sum(1 for worker in self.workers.values()
                   if worker.process.is_alive())

    def send(self, worker_id: str, key: str, job,
             inject: Optional[str] = None) -> None:
        """Lease ``key`` to an idle worker and hand it the job."""
        self.leases.grant(key, worker_id)
        worker = self.workers[worker_id]
        worker.busy = key
        worker.tasks.put((key, job, inject))

    def wake(self) -> None:
        """Cut a dispatcher's :meth:`receive` short (new work queued)."""
        self._events.put(("wake", None, None, None))

    def receive(self, timeout: float) -> list:
        """Block up to ``timeout`` seconds for the first worker event,
        then take every event already queued behind it."""
        events = []
        try:
            events.append(self._events.get(timeout=timeout))
            while True:
                events.append(self._events.get_nowait())
        except queue.Empty:
            pass
        return events

    def collect(self, events: list) -> List[Settled]:
        """Apply received events, expire overdue leases and reap dead
        workers; returns every attempt that ended.  A job may settle
        more than once (a zombie's late result after its lease expired
        and the job was re-dispatched): results are idempotent by key,
        so callers keep the first and ignore the rest."""
        settled: List[Settled] = []
        for kind, worker_id, key, payload in events:
            if kind == "beat":
                self.leases.renew(worker_id)
                continue
            if kind == "wake":
                continue
            worker = self.workers.get(worker_id)
            if worker is not None and worker.busy == key:
                worker.busy = None
            if self.leases.holder(key) == worker_id:
                self.leases.release(key)
            elif kind == "fail":
                continue    # a zombie's attempt was charged at expiry
            settled.append(Settled(key, payload, None) if kind == "done"
                           else Settled(key, None, payload))
        for lease in self.leases.expired():
            settled.append(Settled(lease.key, None, Failure(
                "LeaseExpired",
                f"LeaseExpired: no heartbeat from {lease.worker} for "
                f"{self.leases.ttl:g}s ({lease.renewals} renewal(s))",
                True)))
        for worker_id, worker in list(self.workers.items()):
            if worker.process.is_alive():
                continue
            del self.workers[worker_id]
            for lease in self.leases.expire_worker(worker_id):
                settled.append(Settled(lease.key, None, Failure(
                    "WorkerLost",
                    f"WorkerLost: {worker_id} died with job in flight",
                    True)))
            self.respawns += 1
            log(f"repro: worker {worker_id} died; respawning "
                f"(respawn {self.respawns})", "warn")
            self._spawn()
        return settled


__all__ = ["Settled", "WorkerPool"]
