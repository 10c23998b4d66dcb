"""Regenerate the pinned references of one seed.

Usage (from the repository root)::

    python3 perfbench/pin.py --seed 20080612

For every workload this runs one round, checks it against the oracles
(emulator for full-detail cells, the store-free 1-worker run for sampled
cells) and writes the per-cell digests, together with the full-detail
IPC of every quick Fig. 7 cell at the sampled budget (the reference of
``sampling.ipc_error_pct``), to ``perfbench/pins/seed-<n>.json``.  Pins
must come from a tree whose outputs are trusted: a change that alters
simulated statistics on purpose regenerates them and says so.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from benchlib.sandbox import Sandbox  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    with Sandbox(ROOT / ".perfbench-tmp") as sandbox:
        from benchlib import checks
        from benchlib.spans import Tracer
        from benchlib.workloads import WORKLOADS, Fig7Sampled

        pins = {"seed": args.seed, "instructions": {}}
        for name, cls in WORKLOADS.items():
            workload = cls(args.seed, sandbox)
            workload.setup()
            rnd = workload.round(Tracer(), 0)
            failed = dict(rnd.failed)
            failed.update(workload.oracle(rnd))
            if failed:
                for cell, why in sorted(failed.items()):
                    print(f"{name} {cell}: {why}", file=sys.stderr)
                return 1
            pins["instructions"][name] = workload.instructions
            pins[name] = rnd.digests()
            print(f"{name}: {len(pins[name])} cells verified",
                  file=sys.stderr)
        pins["fig7-full-ipc"] = Fig7Sampled(
            args.seed, sandbox).full_detail_ipc()

    out = checks.pin_path(args.seed)
    out.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
