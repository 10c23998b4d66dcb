"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent, run id), stored column-wise in
``array`` buffers so a traced round of several hundred thousand
per-cycle spans stays a few tens of MB.  Spans are only recorded by the
benchmark's own wrappers around calls into the program's public
functions and methods; nothing inside ``src/repro`` is edited.

Two levels:

* ``CELLS`` (untraced runs): one root span per simulated cell and one
  span per ``core.run`` with its counter deltas.  That is what the
  per-machine rates are computed from; one timer pair per core run is
  noise next to the run itself.
* ``FULL`` (traced runs): additionally every pipeline stage, rename,
  LCS step, branch predict/update, D-cache load and artifact-store
  access.

Campaign workers are forked, so spans recorded there live in the
worker.  Each time a worker's root span closes, the worker appends its
buffer as one pickled chunk to ``spool_dir`` and clears it; the parent
merges the chunks after the round.  Everything else stays in memory
until :meth:`Tracer.dump` writes it when the benchmark ends.
"""

from __future__ import annotations

import os
import pickle
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

CELLS = 0
FULL = 1


class Tracer:
    """Column store of spans plus counters, for one process."""

    def __init__(self, level: int = CELLS) -> None:
        self.level = level
        self.pid = os.getpid()
        self._owner = self.pid
        self.run_id = 0
        self.spool_dir: Optional[Path] = None
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._reset()

    def _reset(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.run = array("H")
        self.counters: Dict[Tuple[int, str], float] = defaultdict(float)
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # ------------------------------------------------------------------ #

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as a span named ``name``."""
        nid = self.name_id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.parent.append(self._stack[-1])
            self.name.append(nid)
            self.run.append(self.run_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()

        return traced

    def cell(self, fn: Callable) -> Callable:
        """Root span ``cell`` around one simulated cell.  In a forked
        worker the closed root flushes the worker's buffer to the spool
        directory."""
        traced = self.wrap("cell", fn)

        def cell(*args, **kwargs):
            pid = os.getpid()
            if pid != self._owner:
                # First cell in a forked worker: the buffered spans are
                # the parent's (it still owns them), so start empty.
                self._reset()
                self._owner = pid
            try:
                return traced(*args, **kwargs)
            finally:
                if self._stack == [-1] and pid != self.pid:
                    self._flush()

        return cell

    def count(self, name: str, value: float) -> None:
        self.counters[(self.run_id, name)] += value

    # ------------------------------------------------------------------ #

    def _chunk(self) -> dict:
        return {"names": list(self.names), "start": self.start,
                "end": self.end, "parent": self.parent,
                "name": self.name, "run": self.run,
                "counters": dict(self.counters)}

    def _flush(self) -> None:
        path = self.spool_dir / f"spans-{os.getpid()}.pkl"
        with open(path, "ab") as fh:
            pickle.dump(self._chunk(), fh, pickle.HIGHEST_PROTOCOL)
        self._reset()

    def collect(self, spool_dir: Path) -> None:
        """Merge every chunk the workers spooled into ``spool_dir``."""
        for path in sorted(spool_dir.glob("spans-*.pkl")):
            with open(path, "rb") as fh:
                while True:
                    try:
                        chunk = pickle.load(fh)
                    except EOFError:
                        break
                    self._merge(chunk)

    def _merge(self, chunk: dict) -> None:
        remap = [self.name_id(n) for n in chunk["names"]]
        base = len(self.start)
        self.start.extend(chunk["start"])
        self.end.extend(chunk["end"])
        self.parent.extend(p + base if p >= 0 else -1
                           for p in chunk["parent"])
        self.name.extend(remap[n] for n in chunk["name"])
        self.run.extend(chunk["run"])
        for key, value in chunk["counters"].items():
            self.counters[key] += value

    def dump(self, path: Path) -> None:
        """Write every span and counter (the end-of-run record)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            pickle.dump(self._chunk(), fh, pickle.HIGHEST_PROTOCOL)

    # ------------------------------------------------------------------ #

    def durations(self, run_id: int) -> Dict[str, float]:
        """Total duration per span name over round ``run_id``."""
        out: Dict[str, float] = defaultdict(float)
        for i, rid in enumerate(self.run):
            if rid == run_id:
                out[self.names[self.name[i]]] += self.end[i] - self.start[i]
        return dict(out)

    def self_times(self, run_id: int) -> Dict[str, float]:
        """Self time per span name over round ``run_id``: each span's
        duration minus the durations of its direct children."""
        start, end, parent, run = self.start, self.end, self.parent, \
            self.run
        child = defaultdict(float)
        picked = [i for i in range(len(start)) if run[i] == run_id]
        for i in picked:
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: Dict[str, float] = defaultdict(float)
        for i in picked:
            out[self.names[self.name[i]]] += (end[i] - start[i]
                                              - child.get(i, 0.0))
        return dict(out)

    def counter_totals(self, run_id: int) -> Dict[str, float]:
        return {name: value for (rid, name), value in self.counters.items()
                if rid == run_id}
