"""Deterministic fault injection (``REPRO_FAULT_INJECT``).

A *fault plan* is a comma-separated list of tokens, each arming one
fault at one named point in the campaign stack::

    REPRO_FAULT_INJECT=worker-kill@2,enospc@put,timeout@4

Two token shapes:

* ``<kind>@<N>`` — a **job fault**: the dispatcher (``run_jobs`` or
  the daemon) consumes it when it hands out the ``N``-th job
  *dispatch* of the run (1-based,
  counting retries; dispatch order is the deterministic pending-job
  order, so the same plan always hits the same cell).  The worker then
  executes the fault at the top of the job body.  Kinds:

  - ``worker-kill`` — SIGKILL the worker process: the pool reaps it,
    forks a replacement and settles the job it held as a transient
    ``WorkerLost`` attempt (on the serial path the fault degrades to a
    :class:`~repro.sim.campaign.executor.WorkerLost` raised in place,
    the same classification).
  - ``timeout`` — raise the per-job
    :class:`~repro.sim.campaign.executor.JobTimeout` (transient).
  - ``oserror`` — raise ``OSError(EIO)`` from the job body (transient).
  - ``assert`` — raise ``AssertionError`` (permanent: quarantined on
    the first attempt, never retried).

* ``<kind>@<site>[*N][%P]`` — a **site fault**: raises the mapped
  ``OSError`` at a named fault point the first time execution arrives
  there (``*N`` = the first N arrivals; ``%P`` = each arrival fires
  with probability P%, drawn from the ``REPRO_FAULT_SEED``-seeded
  generator so a given seed replays the identical fault sequence).
  Kinds ``enospc`` / ``erofs`` / ``eio``; sites threaded through the
  stores and the campaign service:

  - ``put`` — :meth:`repro.sim.campaign.store.ResultStore.put`
  - ``artifact-put`` — :meth:`repro.sim.artifacts.ArtifactStore.put`
  - ``journal`` — the campaign journal append
  - ``enqueue`` — the service spool append
    (:meth:`repro.sim.service.queue.SpoolQueue.submit`): a faulted
    append rejects the submission (a job the daemon cannot persist is
    a job it must not accept).
  - ``lease-renew`` — the dispatcher-side lease renewal when a worker
    heartbeat arrives (:class:`repro.sim.campaign.lease.LeaseTable`):
    a faulted renewal is skipped, so the lease ages toward
    ``REPRO_LEASE_TTL`` expiry even while heartbeats flow —
    deterministic lease-expiry/re-dispatch testing from one process.
  - ``heartbeat`` — the worker-side heartbeat sender: a faulted beat
    is never sent (a worker that "stops heartbeating").

  Site faults fire in the process that owns the site: ``put``,
  ``journal``, ``enqueue`` and ``lease-renew`` in the dispatching
  process (``campaign run`` or the daemon), ``heartbeat`` and, on the
  pool, ``artifact-put`` in the workers, which arm the dispatcher's
  plan at startup, each with its own firing state.

Zero overhead when off (the PR 7 idiom): every fault point is one
module-global ``None`` check (:func:`fire`), no fault point sits on a
simulation hot loop, and with ``REPRO_FAULT_INJECT`` unset nothing is
ever parsed or allocated.  The registry is armed per ``run_jobs`` call
and disarmed on exit, so faulted campaigns cannot leak into later runs
in the same process.

Every recovery path this module exercises must converge: a faulted
campaign's surviving results are required (and CI-checked) to be
bit-identical to a fault-free run.
"""

from __future__ import annotations

import errno
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.defaults import EnvConfigError

#: Job-fault kinds (executed inside the job body / at dispatch).
JOB_KINDS = ("worker-kill", "timeout", "oserror", "assert")

#: Site-fault kinds and the errno each one raises.
SITE_ERRNOS = {
    "enospc": errno.ENOSPC,
    "erofs": errno.EROFS,
    "eio": errno.EIO,
}

#: Named fault points threaded through the stores and the campaign
#: service.  Parse-time validated so a typo'd site fails the run at
#: startup instead of silently never firing.
SITES = ("put", "artifact-put", "journal",
         "enqueue", "lease-renew", "heartbeat")


@dataclass
class _JobFault:
    kind: str
    dispatch: int                        # 1-based dispatch ordinal


@dataclass
class _SiteFault:
    kind: str
    site: str
    remaining: int = 1                   # arrivals left to fault
    probability: Optional[float] = None  # %P tokens: per-arrival chance


@dataclass
class FaultPlan:
    """A parsed ``REPRO_FAULT_INJECT`` plan plus its firing state."""

    job_faults: Dict[int, str] = field(default_factory=dict)
    site_faults: List[_SiteFault] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    # ------------------------------------------------------------------ #

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a fault spec; malformed tokens raise
        :class:`~repro.defaults.EnvConfigError` (one-line CLI error,
        same convention as the other ``REPRO_*`` knobs)."""
        plan = cls(seed=seed)
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            kind, sep, where = token.partition("@")
            if not sep or not kind or not where:
                raise EnvConfigError(
                    f"REPRO_FAULT_INJECT token {token!r} is not "
                    f"<kind>@<dispatch|site>")
            probability = None
            if "%" in where:
                where, _, pct = where.partition("%")
                try:
                    probability = float(pct) / 100.0
                except ValueError:
                    raise EnvConfigError(
                        f"REPRO_FAULT_INJECT token {token!r}: "
                        f"probability {pct!r} is not a number")
            count = 1
            if "*" in where:
                where, _, reps = where.partition("*")
                try:
                    count = int(reps)
                except ValueError:
                    raise EnvConfigError(
                        f"REPRO_FAULT_INJECT token {token!r}: "
                        f"repeat count {reps!r} is not an integer")
            if where.isdigit():
                if kind not in JOB_KINDS:
                    raise EnvConfigError(
                        f"REPRO_FAULT_INJECT token {token!r}: job fault "
                        f"kind must be one of {', '.join(JOB_KINDS)}")
                plan.job_faults[int(where)] = kind
            else:
                if kind not in SITE_ERRNOS:
                    raise EnvConfigError(
                        f"REPRO_FAULT_INJECT token {token!r}: site "
                        f"fault kind must be one of "
                        f"{', '.join(sorted(SITE_ERRNOS))}")
                if where not in SITES:
                    raise EnvConfigError(
                        f"REPRO_FAULT_INJECT token {token!r}: unknown "
                        f"fault site {where!r}; choose from "
                        f"{', '.join(SITES)}")
                plan.site_faults.append(_SiteFault(
                    kind, where, remaining=count,
                    probability=probability))
        return plan

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan armed by the environment, or None (the common
        case, and the only one the disarmed fast path ever sees)."""
        spec = os.environ.get("REPRO_FAULT_INJECT", "").strip()
        if not spec:
            return None
        seed_raw = os.environ.get("REPRO_FAULT_SEED", "0").strip() or "0"
        try:
            seed = int(seed_raw)
        except ValueError:
            raise EnvConfigError(
                f"REPRO_FAULT_SEED must be an integer, got {seed_raw!r}")
        return cls.parse(spec, seed=seed)

    # ------------------------------------------------------------------ #

    def job_fault(self, dispatch: int) -> Optional[str]:
        """Consume and return the job-fault kind armed for this
        dispatch ordinal (None almost always)."""
        return self.job_faults.pop(dispatch, None)

    def fire(self, site: str) -> None:
        """Raise the armed ``OSError`` if a site fault matches
        ``site``; decrements its remaining count so recovery paths can
        converge (a retried operation eventually succeeds)."""
        for fault in self.site_faults:
            if fault.site != site or fault.remaining <= 0:
                continue
            if fault.probability is not None \
                    and self._rng.random() >= fault.probability:
                continue
            fault.remaining -= 1
            raise OSError(SITE_ERRNOS[fault.kind],
                          f"injected {fault.kind} at {site}")


# --------------------------------------------------------------------- #
# The global registry: one None-checked slot, armed per campaign run.
# --------------------------------------------------------------------- #

_PLAN: Optional[FaultPlan] = None


def armed() -> bool:
    return _PLAN is not None


def current() -> Optional[FaultPlan]:
    return _PLAN


def fire(site: str) -> None:
    """Fault point: no-op unless a plan is armed (one global load and a
    ``None`` check — the zero-overhead-when-off contract)."""
    plan = _PLAN
    if plan is not None:
        plan.fire(site)


@contextmanager
def active(plan: Optional[FaultPlan]):
    """Arm ``plan`` for the duration of a campaign run (None = leave
    whatever is armed alone, so nested ``run_jobs`` calls compose)."""
    global _PLAN
    if plan is None:
        yield None
        return
    previous = _PLAN
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = previous


__all__ = ["FaultPlan", "JOB_KINDS", "SITES", "SITE_ERRNOS", "active",
           "armed", "current", "fire"]
