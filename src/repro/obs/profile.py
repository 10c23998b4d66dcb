"""Phase profiling: structured span timing across the sim layers.

:class:`PhaseProfile` accumulates wall-clock seconds (and span counts)
per named phase — ``ff`` / ``bbv-profile`` / ``warmup`` / ``detail`` /
``replay`` / ``store-read`` / ``store-write`` / ``queue-wait`` — so a
campaign or bench run can attribute its time to the layer that spent
it.  Instrumentation sites use :func:`span`::

    with span(profile, "ff"):
        emulator.run_fast(...)

which returns a shared no-op context when ``profile`` is None — the
disabled path allocates nothing and takes no timestamps.  Spans are
coarse (one per fast-forward leg, per detail window, per store access),
so the armed path's ``perf_counter`` pairs are noise next to the work
they bracket.

Campaign workers serialize their profile with :meth:`to_dict` and the
parent merges the payloads into ``CampaignReport.phase``; merged
profiles persist as ``profile.json`` next to the campaign result cache
for ``campaign status --profile``.  ``REPRO_PROFILE=1`` arms campaign
profiling without touching call sites.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from time import perf_counter
from typing import Dict, Optional

#: Shared reusable no-op context for disabled profiles.
_NULL = nullcontext()


def profile_enabled() -> bool:
    """Default campaign-profiling switch (``REPRO_PROFILE`` truthy)."""
    return os.environ.get("REPRO_PROFILE", "").strip().lower() \
        not in ("", "0", "off", "no", "false")


class _Span:
    """Times one ``with`` block into its profile."""

    __slots__ = ("_profile", "_phase", "_t0")

    def __init__(self, profile: "PhaseProfile", phase: str) -> None:
        self._profile = profile
        self._phase = phase

    def __enter__(self) -> None:
        self._t0 = perf_counter()

    def __exit__(self, *exc) -> None:
        self._profile.add(self._phase, perf_counter() - self._t0)


def span(profile: Optional["PhaseProfile"], phase: str):
    """Context manager timing ``phase`` into ``profile``; a shared
    no-op when ``profile`` is None (the zero-overhead-off gate)."""
    return _NULL if profile is None else _Span(profile, phase)


class PhaseProfile:
    """Accumulated seconds and span counts per phase name."""

    __slots__ = ("seconds", "counts")

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def add(self, phase: str, elapsed: float, count: int = 1) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + elapsed
        self.counts[phase] = self.counts.get(phase, 0) + count

    def span(self, phase: str) -> _Span:
        return _Span(self, phase)

    def total(self) -> float:
        return sum(self.seconds.values())

    def merge(self, other) -> None:
        """Fold in another profile (or a :meth:`to_dict` payload)."""
        if isinstance(other, PhaseProfile):
            seconds, counts = other.seconds, other.counts
        else:
            seconds = other.get("seconds", {})
            counts = other.get("counts", {})
        for phase, value in seconds.items():
            self.add(phase, value, counts.get(phase, 0))

    def to_dict(self) -> dict:
        return {"seconds": dict(self.seconds), "counts": dict(self.counts)}

    @classmethod
    def from_dict(cls, data: dict) -> "PhaseProfile":
        profile = cls()
        profile.merge(data)
        return profile

    def format(self, indent: str = "") -> str:
        """Multi-line table, largest phase first.

        A ``job`` span encloses a whole cell, so every other phase
        except the dispatcher-side ``queue-wait`` is nested inside it:
        the table shows ``job`` as self time (minus the nested phases)
        so the shares sum to 100%.  ``seconds`` keeps the enclosing
        total."""
        seconds = dict(self.seconds)
        if "job" in seconds:
            nested = sum(value for phase, value in seconds.items()
                         if phase not in ("job", "queue-wait"))
            seconds["job"] = max(0.0, seconds["job"] - nested)
        total = sum(seconds.values())
        lines = []
        for phase in sorted(seconds, key=seconds.get, reverse=True):
            share = 100.0 * seconds[phase] / total if total else 0.0
            count = self.counts.get(phase, 0)
            name = "job (self)" if phase == "job" else phase
            lines.append(f"{indent}{name:<12} {seconds[phase]:9.3f}s "
                         f"{share:5.1f}%  ({count} spans)")
        return "\n".join(lines)
