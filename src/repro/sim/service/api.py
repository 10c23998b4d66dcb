"""The campaign daemon: API → durable queue → leased workers → receipts.

:class:`CampaignService` composes the campaign engine into a
long-running service (the SNIPPETS Snippet-3 shape):

* **Submit** (``POST /campaigns``) — a JSON campaign spec (workloads ×
  machine tokens × budget) is admitted through the per-client token
  quota (429 + ``Retry-After`` when exhausted) and the bounded spool
  (429 when full), its cells content-hashed into jobs; cells already
  in the result store settle instantly as ``cached``.  Campaign ids
  are content-derived, so resubmitting the same spec is idempotent —
  the client can crash and retry forever without duplicating work.
* **Dispatch** — a dispatcher thread feeds spooled jobs to the same
  lease-based :class:`~repro.sim.campaign.pool.WorkerPool` that
  ``campaign run --jobs N`` uses, blocking on worker events rather
  than polling.  A worker that stops heartbeating past
  ``REPRO_LEASE_TTL`` has its lease expired and the job re-queued; a
  worker that dies is reaped and replaced.  Both are transient
  failures under the usual ``REPRO_RETRIES`` policy
  (:meth:`~repro.sim.campaign.executor.JobAttempts.failed`).  The
  zombie is left alone: results are idempotent by cache key, so its
  late completion settles nothing new.
* **Settle** — the dispatcher persists every result to the store
  itself, and every executed job ends durably ``done`` in the spool
  and as a typed :class:`~repro.sim.campaign.journal.JobReceipt` in
  the campaign journal (outcome ``ok``/``retried``/``quarantined``),
  the same provenance records ``campaign run`` writes and
  ``campaign status`` reads.
* **Recover** — the daemon holds no state that matters outside
  ``<cache-dir>``: ``kill -9`` it, restart it, and the spool replays
  accepted-but-undone jobs, cells settled before the crash are
  recognized in the result store, and the campaign completes
  bit-identical to a serial oracle run.  Workers never write the
  store, so a cell that an orphaned worker finishes after the crash is
  simulated again on restart rather than picked up from the store.

The HTTP layer (``repro serve``) is a stdlib ``ThreadingHTTPServer``;
``/healthz`` answers liveness, ``/readyz`` readiness (queue depth
under cap + live workers) with the machine-readable
:func:`~repro.sim.campaign.status.status_snapshot` attached.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.defaults import (default_instructions,
                            default_sample_instructions, env_int)
from repro.obs import log
from repro.pipeline.stats import SimStats
from repro.sim import faults
from repro.sim.campaign.executor import (Failure, JobAttempts,
                                         default_retries,
                                         default_workers)
from repro.sim.campaign.job import Job
from repro.sim.campaign.journal import CampaignJournal
from repro.sim.campaign.pool import WorkerPool
from repro.sim.campaign.spec import CampaignSpec
from repro.sim.campaign.status import status_snapshot
from repro.sim.campaign.store import ResultStore
from repro.sim.config import SimConfig
from repro.sim.service.queue import QueueFull, SpoolQueue
from repro.sim.service.quota import QuotaTable
from repro.workloads import DEFAULT_SEED, all_workloads


def default_service_host() -> str:
    return os.environ.get("REPRO_SERVICE_HOST", "127.0.0.1")


def default_service_port() -> int:
    return env_int("REPRO_SERVICE_PORT", 8023)


class ApiError(Exception):
    """A client-visible request failure with an HTTP status."""

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class CampaignService:
    """Queue/worker campaign daemon over one cache directory."""

    def __init__(self, cache_dir: Optional[os.PathLike] = None,
                 workers: Optional[int] = None,
                 lease_ttl: Optional[float] = None,
                 queue_cap: Optional[int] = None,
                 quota_burst: Optional[int] = None,
                 quota_refill: Optional[float] = None,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 checkpoints: Optional[bool] = None,
                 clock=time.monotonic) -> None:
        from repro.sim.artifacts import checkpoints_enabled
        self.store = ResultStore(cache_dir)
        self.cache_dir = self.store.cache_dir
        self.queue = SpoolQueue(self.cache_dir, cap=queue_cap)
        self.quota = QuotaTable(quota_burst, quota_refill, clock=clock)
        self.journal = CampaignJournal(self.cache_dir)
        self.workers_wanted = (workers if workers is not None
                               else default_workers())
        self.retries = (retries if retries is not None
                        else default_retries())
        self.clock = clock
        self.plan = faults.FaultPlan.from_env()
        self.pool = WorkerPool(
            self.workers_wanted, cache_dir=self.cache_dir,
            checkpoints=(checkpoints if checkpoints is not None
                         else checkpoints_enabled()),
            timeout=timeout, plan=self.plan, lease_ttl=lease_ttl,
            clock=clock)
        self.leases = self.pool.leases
        self._dispatches = 0
        self._states: Dict[str, JobAttempts] = {}
        self._results: Dict[str, dict] = {}  # stats seen this process
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at = clock()

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Arm faults, recover the spool, fork the workers and start
        the dispatcher thread."""
        faults._PLAN = self.plan
        self._recover()
        self.pool.start()
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-dispatch",
                                        daemon=True)
        self._thread.start()
        self.pool.wake()                    # dispatch recovered jobs now

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self.pool.wake()
            self._thread.join(timeout=5.0)
        self.pool.stop()
        faults._PLAN = None

    def _recover(self) -> None:
        """Replay recovery: settle every spooled-but-undone job whose
        result already sits in the store (settled before the previous
        daemon's death, or by a concurrent ``campaign run``)."""
        undone = []
        item = self.queue.claim()
        while item is not None:
            undone.append(item[0])
            item = self.queue.claim()
        recovered = 0
        for key in reversed(undone):        # requeue() fronts the queue
            if self.store.get(key) is not None:
                self.queue.mark_done(key, "cached", attempts=0)
                recovered += 1
            else:
                self.queue.requeue(key)
        if recovered:
            log(f"repro: serve: recovery settled {recovered} job(s) "
                f"already in the result store")
        depth = self.queue.depth()
        if depth:
            log(f"repro: serve: {depth} job(s) pending from the spool "
                f"will be re-dispatched")

    # ------------------------------------------------------------------ #
    # Dispatcher.
    # ------------------------------------------------------------------ #

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self._tick(self.pool.tick)
            except Exception as exc:        # noqa: BLE001 — keep serving
                log(f"repro: serve: dispatcher error: "
                    f"{type(exc).__name__}: {exc}", "error")
                self._stop.wait(self.pool.tick)     # do not spin

    def _tick(self, timeout: float = 0.0) -> None:
        """One dispatcher round: wait up to ``timeout`` seconds for
        worker events, settle every attempt that ended, then dispatch
        pending jobs to idle workers."""
        events = self.pool.receive(timeout)
        with self._lock:
            for key, result, failure in self.pool.collect(events):
                self._settle(key, result, failure)
            self._dispatch()

    def _settle(self, key: str, result: Optional[tuple],
                failure: Optional[Failure]) -> None:
        if self.queue.outcome(key) is not None:
            return                          # a zombie's late duplicate
        state = self._states.setdefault(key, JobAttempts(key[:12]))
        state.end(self.clock())
        if failure is None:
            self._finish(key, state, result[0])
        elif state.failed(failure, self.retries):
            log(f"repro: serve: retrying {state.label} (attempt "
                f"{state.attempts} failed: {failure.error_class})",
                "warn")
            self.queue.requeue(key)
        else:
            self._quarantine(key, state)

    def _finish(self, key: str, state: JobAttempts,
                stats_dict: dict) -> None:
        self._results[key] = stats_dict
        try:
            self.store.put(key, SimStats.from_dict(stats_dict),
                           meta=self.queue.payload(key))
        except OSError as exc:
            log(f"repro: serve: result store write failed for "
                f"{state.label} ({exc}); result held in daemon "
                f"memory only", "warn")
        receipt = state.receipt(key)
        self.queue.mark_done(key, receipt.outcome,
                             attempts=state.attempts)
        self.journal.record(receipt)

    def _quarantine(self, key: str, state: JobAttempts) -> None:
        self.queue.mark_done(key, "quarantined",
                             attempts=state.attempts)
        self.journal.record(state.receipt(key, quarantined=True))
        log(f"repro: serve: quarantined {state.label} after "
            f"{state.attempts} attempt(s): {state.errors[-1]}", "warn")

    def _dispatch(self) -> None:
        for worker_id in self.pool.idle():
            while True:
                item = self.queue.claim()
                if item is None:
                    return
                key, payload = item
                state = self._states.setdefault(key, JobAttempts(key[:12]))
                # Idempotence check at dispatch: the result may have
                # landed since enqueue (recovery race, a zombie, or a
                # plain `campaign run` sharing this cache dir).
                if key in self._results \
                        or ResultStore(self.cache_dir).get(key) \
                        is not None:
                    self.queue.mark_done(key, "cached",
                                         attempts=state.attempts)
                    continue
                try:
                    job = Job.from_dict(payload)
                except (KeyError, TypeError, ValueError) as exc:
                    state.failed(Failure.of(exc), retries=0)
                    self._quarantine(key, state)
                    continue
                state.label = job.label
                self._dispatches += 1
                state.begin(self.clock())
                self.pool.send(worker_id, key, job,
                               self.plan.job_fault(self._dispatches)
                               if self.plan else None)
                break

    # ------------------------------------------------------------------ #
    # API surface (shared by the HTTP layer and in-process callers).
    # ------------------------------------------------------------------ #

    def submit(self, payload: dict, client: str = "anon") -> dict:
        """Admit one campaign spec; returns the acknowledgement dict.
        Raises :class:`ApiError` on malformed specs (400), quota or
        queue backpressure (429 + retry-after), grids that can never
        fit the quota burst (413), or a spool that cannot be written
        (503 — unpersistable work is unacceptable work)."""
        spec, cells = self._parse_spec(payload)
        keys = sorted({key for row in cells.values()
                       for key in row.values()})
        digest = hashlib.sha256(json.dumps(
            [client, spec.name, keys], sort_keys=True,
            separators=(",", ":")).encode("utf-8")).hexdigest()[:12]
        campaign_id = f"c{digest}"
        with self._lock:
            existing = self.queue.campaign(campaign_id)
            if existing is not None:
                ack = self._ack(existing)
                ack["resubmitted"] = True
                return ack
            jobs = {job.cache_key(): job for job in spec.jobs()}
            cached = [key for key in keys
                      if self.store.get(key) is not None]
            fresh = [key for key in keys if key not in cached
                     and self.queue.outcome(key) is None]
            admitted, retry_after = self.quota.admit(client,
                                                     cost=len(fresh))
            if not admitted:
                if retry_after == float("inf"):
                    raise ApiError(
                        413, f"campaign needs {len(fresh)} job tokens "
                        f"but the per-client burst is "
                        f"{self.quota.burst}; split the grid")
                raise ApiError(
                    429, f"quota exhausted for client {client!r} "
                    f"({len(fresh)} job(s) requested)",
                    retry_after=retry_after)
            record = {
                "id": campaign_id, "name": spec.name, "client": client,
                "benchmarks": list(spec.benchmarks),
                "machines": [c.label for c in spec.configs],
                "instructions": spec.instructions,
                "keys": keys, "cells": cells,
            }
            try:
                self.queue.submit(
                    record,
                    [(key, jobs[key].to_dict()) for key in fresh])
            except QueueFull as exc:
                raise ApiError(429, str(exc),
                               retry_after=exc.retry_after)
            except OSError as exc:
                raise ApiError(503, f"spool write failed: {exc}")
            for key in cached:
                self.queue.mark_done(key, "cached", attempts=0)
            if fresh and self._thread is not None:
                self.pool.wake()            # dispatch without a tick
            return self._ack(record)

    def _ack(self, record: dict) -> dict:
        keys = record.get("keys", [])
        settled = sum(1 for key in keys
                      if self.queue.outcome(key) is not None)
        return {"campaign": record["id"],
                "location": f"/campaigns/{record['id']}",
                "jobs": len(keys),
                "settled": settled,
                "cached": sum(1 for key in keys
                              if self.queue.outcome(key) == "cached")}

    def _parse_spec(self, payload: dict
                    ) -> Tuple[CampaignSpec, Dict[str, Dict[str, str]]]:
        if not isinstance(payload, dict):
            raise ApiError(400, "campaign spec must be a JSON object")
        workloads = payload.get("workloads")
        if isinstance(workloads, str):
            workloads = [w for w in workloads.split(",") if w]
        if not workloads or not isinstance(workloads, list):
            raise ApiError(400, "spec needs a non-empty 'workloads' "
                                "list")
        known = set(all_workloads())
        for name in workloads:
            if name not in known:
                raise ApiError(400, f"unknown workload {name!r}")
        machines = payload.get("machines")
        if isinstance(machines, str):
            machines = [m for m in machines.split(",") if m]
        if not machines or not isinstance(machines, list):
            raise ApiError(400, "spec needs a non-empty 'machines' "
                                "list (tokens like baseline, cpr, "
                                "msp:16, or config dicts)")
        predictor = payload.get("predictor", "tage")
        configs = []
        for token in machines:
            try:
                if isinstance(token, dict):
                    configs.append(SimConfig.from_dict(token))
                else:
                    configs.append(SimConfig.from_token(
                        str(token), predictor=predictor))
            except (ValueError, KeyError, TypeError) as exc:
                raise ApiError(400, f"bad machine {token!r}: {exc}")
        sampling = payload.get("sampling")
        params = None
        if sampling:
            from repro.sim.sampling import SamplingError, SamplingParams
            try:
                params = SamplingParams.coerce(sampling)
            except (SamplingError, ValueError, TypeError) as exc:
                raise ApiError(400, f"bad sampling spec: {exc}")
            configs = [params.apply(config) for config in configs]
        instructions = payload.get("instructions")
        if instructions is None:
            instructions = (default_sample_instructions() if params
                            else default_instructions())
        try:
            instructions = int(instructions)
        except (TypeError, ValueError):
            raise ApiError(400, f"bad instruction budget "
                                f"{instructions!r}")
        if instructions <= 0:
            raise ApiError(400, "instruction budget must be positive")
        seed = payload.get("seed", DEFAULT_SEED)
        name = str(payload.get("name") or "campaign")
        spec = CampaignSpec(name, workloads, configs, instructions,
                            seed=seed)
        labels = [config.label for config in configs]
        if len(set(labels)) != len(labels):
            raise ApiError(400, f"duplicate machine labels {labels}")
        cells = {bench: {config.label: spec.cell_key(bench, config)
                         for config in configs}
                 for bench in workloads}
        return spec, cells

    def campaign_status(self, campaign_id: str) -> dict:
        with self._lock:
            record = self.queue.campaign(campaign_id)
            if record is None:
                raise ApiError(404, f"unknown campaign {campaign_id!r}")
            keys = record.get("keys", [])
            outcomes = {key: self.queue.outcome(key) for key in keys}
            done = sum(1 for o in outcomes.values()
                       if o in ("ok", "retried", "cached"))
            quarantined = sum(1 for o in outcomes.values()
                              if o == "quarantined")
            leased = sum(1 for key in keys
                         if self.leases.holder(key) is not None)
            pending = len(keys) - done - quarantined
            if quarantined and pending == 0:
                state = "partial"
            elif done == len(keys):
                state = "done"
            elif leased or pending < len(keys):
                state = "running"
            else:
                state = "queued"
            return {"campaign": campaign_id,
                    "name": record.get("name"),
                    "client": record.get("client"),
                    "state": state,
                    "jobs": len(keys), "done": done,
                    "pending": pending, "leased": leased,
                    "quarantined": quarantined,
                    "retried": sum(1 for o in outcomes.values()
                                   if o == "retried"),
                    "attempts": {key[:12]: self.queue.attempts(key)
                                 for key in keys
                                 if self.queue.attempts(key) > 1}}

    def campaign_results(self, campaign_id: str) -> dict:
        from repro.sim.experiments import ExperimentResult
        with self._lock:
            status = self.campaign_status(campaign_id)
            record = self.queue.campaign(campaign_id)
            if status["state"] in ("queued", "running"):
                raise ApiError(
                    409, f"campaign {campaign_id} is {status['state']} "
                    f"({status['done']}/{status['jobs']} done); poll "
                    f"/campaigns/{campaign_id} until it settles")
            store = ResultStore(self.cache_dir)   # fresh: other writers too
            grid: Dict[str, Dict[str, SimStats]] = {}
            missing = []
            for bench, row in record.get("cells", {}).items():
                grid[bench] = {}
                for label, key in row.items():
                    stats = store.get(key)
                    if stats is None and key in self._results:
                        stats = SimStats.from_dict(self._results[key])
                    if stats is None:
                        missing.append(f"{bench}/{label}")
                    else:
                        grid[bench][label] = stats
            body = dict(status)
            body["cells"] = {
                bench: {label: stats.to_dict()
                        for label, stats in row.items()}
                for bench, row in grid.items()}
            if missing:
                body["missing"] = missing
            else:
                result = ExperimentResult(
                    record.get("name", campaign_id),
                    record.get("machines", []))
                result.stats = grid
                body["table"] = result.to_table()
            return body

    def campaign_list(self) -> dict:
        with self._lock:
            return {"campaigns": [
                self.campaign_status(campaign_id)
                for campaign_id in sorted(self.queue.campaigns())]}

    def healthz(self) -> dict:
        with self._lock:
            return {"ok": True,
                    "uptime_seconds": round(
                        self.clock() - self._started_at, 3),
                    "workers": {"configured": self.workers_wanted,
                                "alive": self.pool.alive(),
                                "respawns": self.pool.respawns},
                    "dispatches": self._dispatches}

    def readyz(self) -> Tuple[bool, dict]:
        with self._lock:
            depth = self.queue.depth()
            alive = self.pool.alive()
            ready = alive > 0 and depth < self.queue.cap
            body = {"ready": ready,
                    "queue": {"depth": depth, "cap": self.queue.cap,
                              "leased": len(self.leases)},
                    "workers": {"configured": self.workers_wanted,
                                "alive": alive},
                    "lease_ttl": self.leases.ttl,
                    "status": status_snapshot(self.cache_dir)}
            return ready, body


# --------------------------------------------------------------------- #
# HTTP layer.
# --------------------------------------------------------------------- #

class _ServiceHandler(BaseHTTPRequestHandler):
    """Thin JSON shim over :class:`CampaignService`."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> CampaignService:
        return self.server.service           # type: ignore[attr-defined]

    def log_message(self, fmt, *args) -> None:
        log(f"repro: serve: {self.address_string()} "
            f"{fmt % args}", "debug")

    def _reply(self, status: int, body: dict,
               retry_after: Optional[float] = None) -> None:
        blob = (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        if retry_after is not None and retry_after != float("inf"):
            self.send_header("Retry-After",
                             str(max(1, int(retry_after + 0.999))))
        self.end_headers()
        self.wfile.write(blob)

    def _guard(self, fn) -> None:
        try:
            fn()
        except ApiError as exc:
            self._reply(exc.status, {"error": str(exc)},
                        retry_after=exc.retry_after)
        except Exception as exc:            # noqa: BLE001
            log(f"repro: serve: internal error: "
                f"{type(exc).__name__}: {exc}", "error")
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_GET(self) -> None:               # noqa: N802 (stdlib API)
        def handle() -> None:
            path = self.path.rstrip("/") or "/"
            if path == "/healthz":
                self._reply(200, self.service.healthz())
            elif path == "/readyz":
                ready, body = self.service.readyz()
                self._reply(200 if ready else 503, body)
            elif path == "/campaigns":
                self._reply(200, self.service.campaign_list())
            elif path.startswith("/campaigns/"):
                rest = path[len("/campaigns/"):]
                if rest.endswith("/results"):
                    self._reply(200, self.service.campaign_results(
                        rest[:-len("/results")]))
                else:
                    self._reply(200,
                                self.service.campaign_status(rest))
            else:
                raise ApiError(404, f"no route for {self.path!r}")
        self._guard(handle)

    def do_POST(self) -> None:              # noqa: N802 (stdlib API)
        def handle() -> None:
            if self.path.rstrip("/") != "/campaigns":
                raise ApiError(404, f"no route for {self.path!r}")
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            try:
                payload = json.loads(raw.decode("utf-8") or "{}")
            except (ValueError, UnicodeDecodeError) as exc:
                raise ApiError(400, f"request body is not JSON: {exc}")
            client = self.headers.get("X-Repro-Client", "anon")
            self._reply(200, self.service.submit(payload,
                                                 client=client))
        self._guard(handle)


def make_server(service: CampaignService,
                host: Optional[str] = None,
                port: Optional[int] = None) -> ThreadingHTTPServer:
    """Bind the JSON API for an (already started) service.  ``port=0``
    picks an ephemeral port — read it back from
    ``server.server_address``."""
    host = host if host is not None else default_service_host()
    port = port if port is not None else default_service_port()
    server = ThreadingHTTPServer((host, port), _ServiceHandler)
    server.service = service                # type: ignore[attr-defined]
    return server


__all__ = ["ApiError", "CampaignService", "default_service_host",
           "default_service_port", "make_server"]
