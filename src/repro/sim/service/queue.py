"""Crash-safe on-disk campaign queue (the service spool).

The daemon must never lose accepted work: a submission is acknowledged
only after its jobs are durable in ``<cache-dir>/service/spool.jsonl``,
an append-only JSON-lines file written with the result-store idiom —
``flock``-guarded appends, temp-file + atomic-rename compaction,
torn-tail-tolerant reads.  ``kill -9`` the daemon at any instant and a
restart replays the spool: every accepted-but-undone job is pending
again, every ``done`` event still counts, and at most the half-written
tail line (work that was never acknowledged) is lost.

Event grammar (one JSON object per line)::

    {"event": "job",  "key": K, "job": {...}}         # durable payload
    {"event": "campaign", "id": C, "name": ..., "client": ...,
     "keys": [...], "cells": {bench: {machine: K}}, ...}
    {"event": "done", "key": K, "outcome": "ok|retried|quarantined|cached",
     "attempts": N}

``job`` lines are written *before* their ``campaign`` line, so a crash
mid-submit leaves orphan jobs referenced by no campaign — replay drops
them (the client never got an acknowledgement, so nothing was
promised).  Lease state is deliberately **not** persisted: leases are
daemon-memory, void on crash, and every undone job simply re-dispatches
on restart — sound because jobs are content-hashed and their results
idempotent by key.

Admission control lives at the mouth: the queue holds at most ``cap``
(``REPRO_QUEUE_CAP``) undone jobs; a submission that would overflow
raises :class:`QueueFull` carrying a ``retry_after`` hint, which the
API layer maps to HTTP 429 + ``Retry-After``.
"""

from __future__ import annotations

import json
import os
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Tuple

try:
    import fcntl
except ImportError:                       # non-Unix: best-effort, no lock
    fcntl = None

from contextlib import contextmanager

from repro.defaults import env_int
from repro.sim import faults

#: Spool outcomes a job key can settle with.  ``cached`` marks a cell
#: that was served from the result store at submit (or recovery) time
#: and therefore never executed under this daemon.
SPOOL_OUTCOMES = ("ok", "retried", "quarantined", "cached")


def default_queue_cap() -> int:
    """Max undone jobs the daemon will hold (``REPRO_QUEUE_CAP``,
    default 256).  Beyond it, submissions get backpressure (429)."""
    return max(1, env_int("REPRO_QUEUE_CAP", 256))


class QueueFull(RuntimeError):
    """The spool is at capacity; carries a ``retry_after`` hint."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class SpoolQueue:
    """Durable FIFO of content-hashed jobs plus the campaign registry.

    In-memory view (rebuilt from the spool on open): ``pending`` keys
    in submission order, ``claimed`` keys handed to the dispatcher but
    not settled, ``done`` outcomes per key, and one record per
    campaign.  Only submission and settlement are durable events;
    claims are daemon-memory (a crash un-claims everything, which is
    exactly the re-dispatch-on-restart invariant).
    """

    #: Compact once this many dead lines (settled jobs' payloads,
    #: superseded events) accumulate beyond the live records.
    _COMPACT_SLACK = 256

    def __init__(self, cache_dir: Optional[os.PathLike] = None,
                 cap: Optional[int] = None) -> None:
        from repro.sim.campaign.store import default_cache_dir
        self.cache_dir = (Path(cache_dir).expanduser() if cache_dir
                          else default_cache_dir())
        self.dir = self.cache_dir / "service"
        self.path = self.dir / "spool.jsonl"
        self.cap = cap if cap is not None else default_queue_cap()
        self._campaigns: Dict[str, dict] = {}
        self._jobs: Dict[str, dict] = {}        # undone key -> payload
        self._done: Dict[str, dict] = {}        # key -> done event
        self._pending: deque = deque()          # undone, unclaimed keys
        self._claimed: set = set()
        self._replay()

    # ------------------------------------------------------------------ #
    # Durability.
    # ------------------------------------------------------------------ #

    @contextmanager
    def _locked(self):
        """Exclusive inter-process lock on the spool."""
        if fcntl is None:
            yield
            return
        self.dir.mkdir(parents=True, exist_ok=True)
        with (self.dir / ".lock").open("w") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    def _append(self, records: List[dict]) -> None:
        """Durably append event lines (raises ``OSError`` on disk
        faults — the caller decides whether that rejects a submission
        or degrades; the ``enqueue`` fault point lives at the submit
        call, not here, so settlement events stay best-effort)."""
        self.dir.mkdir(parents=True, exist_ok=True)
        with self._locked():
            with self.path.open("a", encoding="utf-8") as fh:
                for record in records:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")

    def _events(self) -> Tuple[List[dict], int]:
        events: List[dict] = []
        lines = 0
        try:
            with self.path.open("r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    lines += 1
                    try:
                        events.append(json.loads(line))
                    except json.JSONDecodeError:
                        continue              # torn tail write: skip
        except OSError:
            pass
        return events, lines

    def _replay(self) -> None:
        """Rebuild the in-memory view from the spool."""
        events, _ = self._events()
        order: List[str] = []
        for event in events:
            kind = event.get("event")
            if kind == "job" and "key" in event:
                if event["key"] not in self._jobs:
                    order.append(event["key"])
                self._jobs[event["key"]] = event.get("job", {})
            elif kind == "campaign" and "id" in event:
                self._campaigns[event["id"]] = event
            elif kind == "done" and "key" in event:
                self._done[event["key"]] = event
        referenced = set()
        for campaign in self._campaigns.values():
            referenced.update(campaign.get("keys", ()))
        for key in order:
            if key in self._done or key not in referenced:
                # Settled, or an orphan from a torn submit (its
                # campaign line never made it: nothing was promised).
                self._jobs.pop(key, None)
                continue
            self._pending.append(key)

    # ------------------------------------------------------------------ #
    # Admission (the durable mouth of the service).
    # ------------------------------------------------------------------ #

    def depth(self) -> int:
        """Undone jobs the daemon is responsible for (pending plus
        claimed/in-flight) — the backpressure signal."""
        return len(self._pending) + len(self._claimed)

    def submit(self, campaign: dict,
               jobs: List[Tuple[str, dict]]) -> None:
        """Durably accept one campaign and enqueue its uncached cells.

        ``campaign`` must carry ``id`` and ``keys``; ``jobs`` is the
        ``(key, payload)`` list to actually enqueue (the caller already
        settled cached cells).  Raises :class:`QueueFull` over
        capacity and ``OSError`` if the spool cannot be written (the
        ``enqueue`` fault point) — in both cases nothing was accepted.
        """
        fresh = [(key, payload) for key, payload in jobs
                 if key not in self._done and key not in self._jobs]
        if self.depth() + len(fresh) > self.cap:
            raise QueueFull(
                f"queue at capacity ({self.depth()}/{self.cap} undone "
                f"job(s); {len(fresh)} more would overflow)",
                retry_after=5.0)
        faults.fire("enqueue")
        records = [{"event": "job", "key": key, "job": payload}
                   for key, payload in fresh]
        records.append(dict(campaign, event="campaign"))
        self._append(records)
        for key, payload in fresh:
            self._jobs[key] = payload
            self._pending.append(key)
        self._campaigns[campaign["id"]] = dict(campaign,
                                               event="campaign")

    # ------------------------------------------------------------------ #
    # Dispatch bookkeeping (in-memory; durable only at settlement).
    # ------------------------------------------------------------------ #

    def claim(self) -> Optional[Tuple[str, dict]]:
        """Pop the next pending job for dispatch, or None."""
        while self._pending:
            key = self._pending.popleft()
            if key in self._done:
                continue
            self._claimed.add(key)
            return key, self._jobs[key]
        return None

    def requeue(self, key: str) -> None:
        """Return a claimed job to the *front* of the queue (a
        lease-expired job should not wait behind the whole backlog)."""
        if key in self._claimed:
            self._claimed.discard(key)
            self._pending.appendleft(key)

    def mark_done(self, key: str, outcome: str,
                  attempts: int = 1) -> None:
        """Settle a job durably (best-effort: a spool that cannot be
        appended degrades to memory — on restart the job re-dispatches
        and its idempotent re-execution converges)."""
        if outcome not in SPOOL_OUTCOMES:
            raise ValueError(f"unknown spool outcome {outcome!r}")
        if key in self._done:
            return                          # zombie's late duplicate
        event = {"event": "done", "key": key, "outcome": outcome,
                 "attempts": attempts}
        self._done[key] = event
        self._claimed.discard(key)
        self._jobs.pop(key, None)
        try:
            self._append([event])
        except OSError:
            return
        self._maybe_compact()

    def payload(self, key: str) -> Optional[dict]:
        """The durable job payload of an undone key."""
        return self._jobs.get(key)

    def outcome(self, key: str) -> Optional[str]:
        event = self._done.get(key)
        return event.get("outcome") if event else None

    def attempts(self, key: str) -> int:
        event = self._done.get(key)
        return int(event.get("attempts", 0)) if event else 0

    # ------------------------------------------------------------------ #
    # Campaign registry.
    # ------------------------------------------------------------------ #

    def campaign(self, campaign_id: str) -> Optional[dict]:
        return self._campaigns.get(campaign_id)

    def campaigns(self) -> Dict[str, dict]:
        return dict(self._campaigns)

    # ------------------------------------------------------------------ #
    # Compaction.
    # ------------------------------------------------------------------ #

    def _maybe_compact(self) -> None:
        try:
            events, lines = self._events()
        except OSError:
            return
        live = (len(self._campaigns) + len(self._jobs)
                + len(self._done))
        if lines - live >= self._COMPACT_SLACK:
            self.compact()

    def compact(self) -> int:
        """Rewrite the spool keeping campaigns, undone job payloads
        and the latest ``done`` event per key; returns dropped lines.
        Temp-file + atomic rename under the lock, so concurrent
        readers never see a torn spool."""
        try:
            with self._locked():
                _, lines = self._events()
                records = ([dict(c) for c in self._campaigns.values()]
                           + [{"event": "job", "key": key, "job": payload}
                              for key, payload in self._jobs.items()]
                           + list(self._done.values()))
                dropped = lines - len(records)
                if dropped <= 0:
                    return 0
                tmp = self.path.with_suffix(".jsonl.tmp")
                with tmp.open("w", encoding="utf-8") as fh:
                    for record in records:
                        fh.write(json.dumps(record, sort_keys=True)
                                 + "\n")
                tmp.replace(self.path)
                return dropped
        except OSError:
            return 0

    def clear(self) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass
        self._campaigns.clear()
        self._jobs.clear()
        self._done.clear()
        self._pending.clear()
        self._claimed.clear()


__all__ = ["QueueFull", "SPOOL_OUTCOMES", "SpoolQueue",
           "default_queue_cap"]
