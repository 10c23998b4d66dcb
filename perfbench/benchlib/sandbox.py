"""Hermetic runs: no ``REPRO_*`` knob leaks in, no user cache is touched.

Every ``REPRO_*`` variable the program reads (budgets, the sampling
family, benchset, jobs, cache dir, checkpoints, profiling, fault
injection, retries, window cap, ...) is removed for the duration of a
run, and ``REPRO_CACHE_DIR`` is pinned to a private directory inside the
sandbox, so nothing can fall back to ``~/.cache/repro``: a warm
artifact store there would silently turn a cold grid into a replay.
Grids get a fresh, verified-empty cache directory per round.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path
from typing import Dict, Optional


class NotCold(RuntimeError):
    """A result cache / artifact store directory already holds data."""


def require_cold(path: os.PathLike) -> Path:
    """Refuse a cache directory that exists and is not empty."""
    path = Path(path)
    if path.exists() and any(path.iterdir()):
        raise NotCold(f"cache directory {path} is not empty; a cold "
                      f"round needs a fresh result cache and store")
    return path


class Sandbox:
    """Context manager: scrubbed ``REPRO_*`` environment plus a private
    scratch root under ``root`` that is deleted on exit."""

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self.dir: Optional[Path] = None
        self._saved: Dict[str, str] = {}
        self._count = 0

    def __enter__(self) -> "Sandbox":
        self.root.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=self.root))
        self._saved = {k: v for k, v in os.environ.items()
                       if k.startswith("REPRO_")}
        for key in self._saved:
            del os.environ[key]
        home = self.dir / "default-cache"
        home.mkdir()
        os.environ["REPRO_CACHE_DIR"] = str(home)
        return self

    def fresh_dir(self, label: str) -> Path:
        """A new empty directory for one round's cache and store."""
        self._count += 1
        path = self.dir / f"{label}-{self._count}"
        path.mkdir()
        return require_cold(path)

    def default_cache_untouched(self) -> bool:
        """True when nothing fell back to the pinned default cache
        directory (every round must use its own fresh one)."""
        return not any((self.dir / "default-cache").iterdir())

    def __exit__(self, *exc) -> bool:
        for key in [k for k in os.environ if k.startswith("REPRO_")]:
            del os.environ[key]
        os.environ.update(self._saved)
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            try:
                self.root.rmdir()       # only when no other run uses it
            except OSError:
                pass
        return False
