"""Structure-of-arrays in-flight instruction state.

Every dynamic instruction used to be a ``DynInst`` object; on the
hottest loop in the repo that meant an attribute access (dict-backed or
slot-backed, either way a C call) per field per stage.  The
:class:`InflightWindow` replaces the object with parallel columns —
one plain Python list per field — indexed by ``seq & mask`` over a
power-of-two ring.  This is the same parallel-int-array idiom that made
the TAGE predictor 3x faster (PR 2), applied one layer deeper.

Ownership discipline
--------------------
Sequence numbers are globally unique, monotonically increasing, and
never reused.  A slot is *owned* by dynamic instruction ``s`` exactly
while ``window.sq[s & mask] == s``; once a younger instruction claims
the slot the old seq is dead.  Stale seq references (scan-scheduler
heap zombies, waiting-list leftovers, completion buckets) therefore
check ownership first — a mismatch is semantically identical to the old
``di.squashed`` test, because the only way a slot is recycled is that
every older occupant was squashed or committed.

Growth
------
The ring must always span ``[oldest_live_seq, next_seq + fetch_width)``.
Capacity is checked once per fetch group against a cached *barrier*
(``oldest_live + capacity``); only when the barrier is crossed does the
core recompute the true oldest live seq and, if the span genuinely
exceeds capacity, :meth:`grow` doubles the ring — re-placing every
column entry at ``seq & new_mask`` *in place* (``col[:] = new``), so
hot loops that bound a column to a local keep seeing live storage.
The mask itself cannot be updated in place: a loop that caches it
must re-read ``window.mask`` after anything that can grow the ring
(the fused baseline loop does so after fetch).  ``REPRO_WINDOW_CAP``
forces a tiny initial capacity so tests and the fuzz harness exercise
the growth path on ordinary programs.
"""

from __future__ import annotations

from repro.defaults import env_int

#: ``st`` column bit flags.
ISSUED = 1
COMPLETED = 2
SQUASHED = 4
MISPRED = 8

#: Names of the per-instruction columns, in declaration order.
COLUMNS = (
    "sq",    # owning seq (-1 = free): the validity check
    "pc",    # fetch PC (indexes the program's static columns)
    "st",    # status bitfield: ISSUED/COMPLETED/SQUASHED/MISPRED
    "h0",    # physical handle of source 0
    "h1",    # physical handle of source 1
    "wc",    # outstanding-operand wait count
    "dest",  # destination physical handle (None when !writes_reg)
    "res",   # execution result (written at issue, published at WB)
    "sval",  # store data value (read again at writeback)
    "eic",   # earliest issue cycle
    "pred",  # Prediction object (conditional branches)
    "ptk",   # predicted taken
    "ptg",   # predicted target
    "atk",   # actual taken (resolved at execute)
    "atg",   # actual target
    "ma",    # effective memory address
    "fin",   # completion cycle (written at issue; targeted squash purge)
    "se",    # store-queue entry
    "tag",   # arch snapshot / CPR checkpoint memo (None default)
    "sid",   # MSP state id
    "ghr",   # global-history snapshot at fetch
)


#: Free-slot filler per column (only ``sq`` is ever *read* before the
#: owning instruction writes the field, but keep fillers type-honest).
_DEFAULTS = {
    "sq": -1, "pc": 0, "st": 0, "h0": 0, "h1": 0, "wc": 0,
    "dest": None, "res": 0, "sval": 0, "eic": 0, "pred": None,
    "ptk": False, "ptg": 0, "atk": False, "atg": 0, "ma": -1,
    "fin": 0, "se": None, "tag": None, "sid": 0, "ghr": None,
}


def _window_capacity(requested: int) -> int:
    """Initial ring capacity: env override, rounded up to a power of 2."""
    cap = env_int("REPRO_WINDOW_CAP", requested)
    if cap < 4:
        cap = 4
    size = 4
    while size < cap:
        size <<= 1
    return size


class InflightWindow:
    """Ring-buffered SoA state for all in-flight instructions."""

    __slots__ = tuple(COLUMNS) + ("capacity", "mask", "grow_barrier",
                                  "grows")

    def __init__(self, capacity: int = 1024) -> None:
        capacity = _window_capacity(capacity)
        self.capacity = capacity
        self.mask = capacity - 1
        #: Fetch may mint seqs below this without an oldest-live check.
        self.grow_barrier = capacity
        self.grows = 0
        self.sq = [-1] * capacity
        self.pc = [0] * capacity
        self.st = [0] * capacity
        self.h0 = [0] * capacity
        self.h1 = [0] * capacity
        self.wc = [0] * capacity
        self.dest = [None] * capacity
        self.res = [0] * capacity
        self.sval = [0] * capacity
        self.eic = [0] * capacity
        self.pred = [None] * capacity
        self.ptk = [False] * capacity
        self.ptg = [0] * capacity
        self.atk = [False] * capacity
        self.atg = [0] * capacity
        self.ma = [-1] * capacity
        self.fin = [0] * capacity
        self.se = [None] * capacity
        self.tag = [None] * capacity
        self.sid = [0] * capacity
        self.ghr = [None] * capacity

    # ------------------------------------------------------------------ #

    def ensure_room(self, oldest_live: int, limit: int) -> None:
        """Grow until the ring spans ``[oldest_live, limit)``; refresh
        the barrier either way.  Called only when fetch crosses
        ``grow_barrier``, i.e. rarely."""
        while limit - oldest_live > self.capacity:
            self._grow()
        self.grow_barrier = oldest_live + self.capacity

    def _grow(self) -> None:
        old_cap = self.capacity
        new_cap = old_cap * 2
        new_mask = new_cap - 1
        old_sq = list(self.sq)
        for name in COLUMNS:
            col = getattr(self, name)
            fresh = [_DEFAULTS[name]] * new_cap
            for slot in range(old_cap):
                s = old_sq[slot]
                if s >= 0:
                    fresh[s & new_mask] = col[slot]
            # In place: hot loops bound the list object itself.
            col[:] = fresh
        self.capacity = new_cap
        self.mask = new_mask
        self.grows += 1
