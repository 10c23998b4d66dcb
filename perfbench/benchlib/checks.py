"""Output checks: per-cell statistics digests, pinned references and
oracles.

A cell's digest is the SHA-256 of its ``SimStats.to_dict()`` minus
exactly :data:`EXCLUDED`.  Those three fields record *how* functional
work was obtained (executed, or replayed from the checkpoint store),
and which worker recorded a trace first depends on process scheduling:
they differ between 1-worker and 2-worker runs and between two 2-worker
runs, while every other field is bit-identical.

A seed with pinned digests (``pins/seed-<n>.json``) is checked against
them.  Any other seed is checked against oracles instead: full-detail
cells are re-run in-process with commit recording and compared with the
functional emulator (committed PC trace and final memory); sampled cells
are compared with the same cells run on one worker without a store.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

#: Provenance fields left out of every digest, and nothing else.
EXCLUDED = frozenset({"checkpoint_hits", "ff_executed_instructions",
                      "ff_skipped_instructions"})

PIN_DIR = Path(__file__).resolve().parent.parent / "pins"


def digest(stats_dict: dict) -> str:
    """Digest of one cell's statistics (``SimStats.to_dict()``)."""
    kept = {k: v for k, v in stats_dict.items() if k not in EXCLUDED}
    blob = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def pin_path(seed: int) -> Path:
    return PIN_DIR / f"seed-{seed}.json"


def load_pins(seed: int) -> Optional[dict]:
    path = pin_path(seed)
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(got: Dict[str, str], want: Dict[str, str]) -> List[str]:
    """Cells whose digest differs from ``want`` or that are missing
    on either side."""
    return sorted(cell for cell in set(got) | set(want)
                  if got.get(cell) != want.get(cell))


def oracle_full_detail(program, config, instructions: int,
                       expected: str) -> Optional[str]:
    """Re-run one full-detail cell with commit recording; return a
    failure message, or None when its digest equals ``expected`` and its
    committed PCs and final memory match the functional emulator."""
    from repro.isa import Emulator
    from repro.sim.runner import build_core
    from repro.workloads.fuzz import compare_with_oracle
    core = build_core(program, config.with_(record_commits=True))
    stats = core.run(max_instructions=instructions)
    if digest(stats.to_dict()) != expected:
        return "statistics differ from the timed run"
    emulator = Emulator(program, trace_pcs=True)
    reference = emulator.run(max_instructions=stats.committed)
    mismatch = compare_with_oracle(core.commit_trace, reference.pc_trace,
                                   core.memory, emulator.memory)
    if mismatch is not None:
        return f"{mismatch[0]}: {mismatch[1]}"
    return None
