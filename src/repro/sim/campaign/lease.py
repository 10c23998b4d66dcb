"""Worker leases with heartbeats (the at-least-once dispatch contract).

Every dispatched job is covered by a :class:`Lease`: worker id, grant
time, and a deadline ``REPRO_LEASE_TTL`` seconds out.  A working
worker's heartbeat thread beats several times per TTL; each beat
renews every lease the worker holds.  A worker that stops heartbeating
— killed, wedged, or with its beats suppressed by the ``heartbeat``
fault site — ages past its deadline and :meth:`LeaseTable.expired`
hands the lease back to the dispatcher, which re-queues the job.

Expiry is deliberately *not* worker murder: a zombie worker that lost
its lease but eventually finishes is harmless, because results are
idempotent by content-hash key — the dispatcher settles a job once and
ignores every later event for it.  The lease bounds how long a job's
*progress* can stall, not how long a worker may live.

Renewals pass through the ``lease-renew`` fault point
(:mod:`repro.sim.faults`): a faulted renewal is skipped, so lease
expiry is deterministically testable from the dispatching process
alone even while real heartbeats keep arriving.

The table lives in the dispatcher's memory only.  Leases are void when
the dispatcher dies, by design: the service spool still lists every
undone job, so a restarted daemon re-dispatches them all — the
crash-recovery invariant needs no persistent lease state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.defaults import env_float
from repro.obs import log
from repro.sim import faults


def default_lease_ttl() -> float:
    """Seconds without a heartbeat before a worker's leases expire
    (``REPRO_LEASE_TTL``, default 30).  Calibrate it well above the
    per-job wall-time tail — see EXPERIMENTS.md, "Lease-TTL
    calibration"."""
    return max(0.05, env_float("REPRO_LEASE_TTL", 30.0))


@dataclass
class Lease:
    """One job's coverage by one worker."""

    key: str
    worker: str
    granted: float
    deadline: float
    renewals: int = 0


class LeaseTable:
    """Active leases, keyed by job key (at most one lease per job)."""

    def __init__(self, ttl: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.ttl = ttl if ttl is not None else default_lease_ttl()
        self.clock = clock
        self._leases: Dict[str, Lease] = {}

    def __len__(self) -> int:
        return len(self._leases)

    def grant(self, key: str, worker: str) -> Lease:
        if key in self._leases:
            raise ValueError(f"job {key} already leased to "
                             f"{self._leases[key].worker}")
        now = self.clock()
        lease = Lease(key=key, worker=worker, granted=now,
                      deadline=now + self.ttl)
        self._leases[key] = lease
        return lease

    def renew(self, worker: str) -> int:
        """A heartbeat from ``worker`` arrived: push the deadline of
        every lease it holds out by one TTL.  Each renewal passes the
        ``lease-renew`` fault point; a faulted renewal is skipped (the
        lease keeps aging), which is how lease expiry is tested
        without killing anything."""
        renewed = 0
        for lease in self._leases.values():
            if lease.worker != worker:
                continue
            try:
                faults.fire("lease-renew")
            except OSError as exc:
                log(f"repro: lease renewal for {lease.key[:12]} "
                    f"skipped ({exc})", "debug")
                continue
            lease.deadline = self.clock() + self.ttl
            lease.renewals += 1
            renewed += 1
        return renewed

    def expired(self) -> List[Lease]:
        """Pop and return every lease past its deadline."""
        now = self.clock()
        out = [lease for lease in self._leases.values()
               if lease.deadline <= now]
        for lease in out:
            del self._leases[lease.key]
        return out

    def expire_worker(self, worker: str) -> List[Lease]:
        """Pop every lease held by ``worker`` (its process died — no
        point waiting for the deadline)."""
        out = [lease for lease in self._leases.values()
               if lease.worker == worker]
        for lease in out:
            del self._leases[lease.key]
        return out

    def release(self, key: str) -> Optional[Lease]:
        """Drop the lease for a settled job (normal completion)."""
        return self._leases.pop(key, None)

    def holder(self, key: str) -> Optional[str]:
        lease = self._leases.get(key)
        return lease.worker if lease else None

    def held(self) -> List[str]:
        return list(self._leases)


__all__ = ["Lease", "LeaseTable", "default_lease_ttl"]
