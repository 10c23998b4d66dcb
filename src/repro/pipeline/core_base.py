"""Shared out-of-order core engine.

The three machines (baseline ROB, CPR, MSP) share this cycle-level engine:
fetch, dispatch, operand wakeup, issue with functional-unit limits,
execution with real data values (execution-driven, including wrong paths),
store-queue forwarding and squash bookkeeping. Subclasses plug in exactly
the parts the paper says differ:

* renaming / resource allocation (``rename`` / ``dispatch_blocked``),
* commit (``commit_stage``),
* recovery (``recover_from_branch`` / ``take_exception``),
* physical-register storage (``handle_ready`` / ``read_operand`` /
  ``write_result``),
* port arbitration (``acquire_read_ports`` / ``filter_writebacks``).

In-flight state is structure-of-arrays: one :class:`InflightWindow`
column per field, indexed by ``seq & mask`` (see
:mod:`repro.pipeline.window`).  Static per-PC metadata (kind, FU code,
latency, sources, semantics fn) comes from the program's predecoded
columns, so the hot loops never touch an ``Instruction`` object.  All
engine-to-architecture hooks identify an instruction by ``(seq, slot)``.

Stage evaluation order within a cycle is commit -> writeback -> issue ->
dispatch -> fetch, so results written back in cycle *t* can wake a
consumer that issues in *t* (standard back-to-back scheduling) while
newly dispatched instructions first become issue-eligible in *t+1*
(*t+2* with the MSP arbitration stage).

Two interchangeable backend schedulers drive issue/wakeup
(``SimConfig.scheduler``):

* ``"scan"`` — the original per-cycle loop: every ready candidate is
  heap-popped, examined and re-pushed each cycle, completion buckets are
  filtered lazily, and every cycle is simulated even when nothing can
  happen.  Kept verbatim as the reference oracle.
* ``"event"`` (default) — the ready window is ONE sorted-by-seq list
  that each candidate enters exactly once (at dispatch, or when its
  last operand arrives); the per-cycle walk examines the front of the
  window in place with no heap churn, squash unlinks waiters from the
  wakeup map and purges stale completion events instead of leaving
  zombies, and ``run`` skips provably idle stretches (no completions
  due, fetch stalled, dispatch blocked, nothing issuable) in one jump
  to the next event time while replaying the per-cycle stall
  accounting in bulk.

Both schedulers produce bit-identical :class:`SimStats` — the event
walk examines candidates in the same seq order, consumes the same
``max_issue_scan`` budget (including for blocked, not-yet-eligible and
stale entries) and defers for the same reasons; the idle skip engages
only after a cycle whose observed effect was provably nothing but
counter ticks.

Stale seq references (scan-heap zombies, waiting-list leftovers,
completion-bucket entries) are detected by slot ownership:
``window.sq[s & mask] != s`` means the slot was recycled, which can
only happen after ``s`` was squashed or committed — semantically the
old ``di.squashed`` test.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import insort
from collections import deque
from heapq import heappush, heappop
from typing import Any, Deque, Dict, List, Optional

#: Unsigned 64-bit mask — ``effective_address`` fast path for int bases
#: (``wrap_int(base + imm) & mask`` equals ``(base + imm) & mask``).
_ADDR_MASK = (1 << 64) - 1

from repro.branch import BranchTargetBuffer, make_predictor
from repro.isa.opcodes import Op
from repro.isa.program import Program
from repro.isa.semantics import effective_address
from repro.memory.cache import MemoryHierarchy
from repro.pipeline.fetch import FetchEngine
from repro.pipeline.resources import FunctionalUnitPool, LoadBuffer
from repro.pipeline.stats import SimStats
from repro.pipeline.window import (COMPLETED, ISSUED, MISPRED, SQUASHED,
                                   InflightWindow)
from repro.storequeue.queue import StoreQueue

_HALT = Op.HALT.value
_FLD = Op.FLD.value

#: fault_seq sentinel for exceptions: every squashed executed instruction
#: is on the correct path (will be re-fetched identically).
FAULT_NONE = 1 << 62


class OutOfOrderCore(ABC):
    """Cycle-level execution-driven out-of-order core."""

    #: Extra pipe stages between rename and first issue eligibility
    #: (the MSP arbitration stage sets this to 1).
    extra_dispatch_delay = 0

    #: Initial in-flight ring capacity.  The baseline ROB bounds its
    #: window structurally; CPR/MSP can keep more in flight, so they
    #: start bigger.  Either way :class:`InflightWindow` grows on
    #: demand — this is a starting point, not a limit.
    window_capacity = 1024

    def __init__(self, program: Program, config) -> None:
        self.program = program
        self.config = config
        self.stats = SimStats()

        #: Structure-of-arrays in-flight state, shared with fetch.
        self.w = InflightWindow(self.window_capacity)
        self._dec = program.decoded

        self.hierarchy = MemoryHierarchy.from_config(config)
        if config.warm_caches:
            self.hierarchy.warm(range(len(program)),
                                program.memory_line_addrs)
        self.predictor = make_predictor(config.predictor,
                                        **config.predictor_kwargs)
        self.btb = BranchTargetBuffer()
        self.fetch = FetchEngine(program, self.hierarchy, self.predictor,
                                 self.btb, width=config.fetch_width,
                                 window=self.w)
        self.fetch.oldest_live = self._oldest_live
        self.fus = FunctionalUnitPool(config.int_units, config.fp_units,
                                      config.ldst_units, config.issue_width)
        self.load_buffer = LoadBuffer(config.load_buffer)
        self.sq = StoreQueue(config.sq_l1, config.sq_l2,
                             config.l2_forward_penalty)

        #: Committed architectural memory state.
        self.memory: Dict[int, Any] = dict(program.initial_memory)

        self.now = 0
        self.done = False
        #: Dispatched, uncommitted seqs, oldest first (the ROB view).
        self.in_flight: Deque[int] = deque()
        self.iq_count = 0
        scheduler = getattr(config, "scheduler", "event")
        if scheduler not in ("event", "scan"):
            raise ValueError(f"unknown scheduler {scheduler!r}; "
                             f"choose 'event' or 'scan'")
        #: True for the event-driven scheduler, False for the reference
        #: per-cycle scan loop.
        self._sched_event = scheduler == "event"
        self._ready: List[int] = []                # scan: heap of seqs
        #: Event scheduler's ready window: seqs sorted ascending.  An
        #: instruction enters exactly once — at dispatch when all
        #: operands are ready, else when its last operand writes back.
        self._ready_list: List[int] = []
        self._waiting: Dict[Any, List[int]] = {}
        self._completions: Dict[int, List[int]] = {}
        # Stores waiting for their address operand (early AGU).
        self._addr_watch: Dict[Any, List[int]] = {}

        # Event-scheduler idle-skip bookkeeping (see ``run``).
        self._quiet = False                 # last cycle changed nothing
        self._last_stall_reason: Optional[str] = None
        self._wb_live = False               # writeback processed work
        self._ready_dropped = False         # walk dropped stale entries
        self._next_timed: Optional[int] = None  # earliest pending-issue
        #: Cycles elided by the idle skip (diagnostics; included in
        #: ``stats.cycles`` — the skip is accounting-exact).
        self.skipped_cycles = 0

        # Hot-path specialisation for the event scheduler.  Hook-override
        # flags let the per-instruction loops skip calls that would hit
        # the base class's no-op implementations; the operand tables are
        # published by subclasses whose register file is a flat
        # int-indexed (value, ready) list pair so the core can index it
        # directly instead of paying a method call per operand.  None of
        # this changes behaviour — the scan oracle always goes through
        # the virtual calls.
        base = OutOfOrderCore
        cls = type(self)
        self._has_read_ports = (
            cls.acquire_read_ports is not base.acquire_read_ports)
        self._has_wb_filter = (
            cls.filter_writebacks is not base.filter_writebacks)
        self._has_on_complete = cls.on_complete is not base.on_complete
        self._has_begin_issue = (
            cls.begin_issue_cycle is not base.begin_issue_cycle)
        self._has_begin_dispatch = (
            cls.begin_dispatch_cycle is not base.begin_dispatch_cycle)
        #: ``phys_ready`` list for direct ``handle_ready`` indexing
        #: (baseline and CPR publish it), or None.
        self._ready_table: Optional[List[bool]] = None
        #: ``phys_value`` list for direct side-effect-free peeks and
        #: result writes (baseline and CPR — both store values in a flat
        #: list and mark ready on writeback), or None.  MSP keeps the
        #: virtual calls (banked storage).
        self._value_table: Optional[List] = None
        #: True when ``read_operand`` is a pure table read (baseline;
        #: CPR reads must release reader reference counts).
        self._read_direct = False

        #: Observability hook slots (``repro.obs``), pre-bound to None
        #: so every emission site is a single attribute test when
        #: telemetry is off — the same idiom as the specialisation
        #: flags above.  Armed via :meth:`attach_tracer` /
        #: :meth:`attach_metrics`; the fused baseline loop falls back
        #: to this generic (hook-bearing, bit-identical) engine while
        #: either is armed.
        self.tracer = None
        self._metrics = None

        self.commit_ordinal = 0
        self.exception_plan = set(config.exception_ordinals)
        self._exceptions_taken: set = set()
        #: PCs of committed instructions, in order (when record_commits).
        self.commit_trace: Optional[List[int]] = (
            [] if config.record_commits else None)

    def _oldest_live(self) -> int:
        """Oldest seq whose window slot must stay intact (ring growth)."""
        if self.in_flight:
            return self.in_flight[0]
        buffer = self.fetch.buffer
        return buffer[0] if buffer else self.fetch.next_seq

    # ------------------------------------------------------------------ #
    # Checkpoint seeding and warm-state injection (sampled simulation).
    # ------------------------------------------------------------------ #

    def seed_architectural_state(self, state) -> None:
        """Start this (fresh) core from an architectural checkpoint
        (:class:`~repro.isa.emulator.EmulatorState`) instead of the
        program entry: PC, committed memory and every logical register
        take the checkpoint's values. Must be called before the first
        cycle — the identity rename mappings set up at construction are
        what make per-logical-register seeding sufficient.

        The memory copy below is load-bearing: the sampled engine
        hands out copy-on-write checkpoints that alias the emulator's
        live dict (``Emulator.snapshot(share=True)``), so the core must
        never write through ``state.memory``."""
        if self.now or self.stats.cycles or self.fetch.fetched:
            raise RuntimeError("seed_architectural_state requires a "
                               "fresh core (no cycles simulated yet)")
        self.fetch.pc = state.pc
        self.memory = dict(state.memory)
        for logical, value in enumerate(state.regs):
            self.seed_register(logical, value)
        self.on_seeded(state.pc)

    def seed_register(self, logical: int, value) -> None:
        """Set the initial architectural value of ``logical`` (each
        machine stores it in its own register organisation)."""
        raise NotImplementedError

    def on_seeded(self, pc: int) -> None:
        """Architecture hook after checkpoint seeding (CPR re-anchors
        its initial checkpoint here)."""

    def install_warm_state(self, predictor=None, btb=None,
                           hierarchy=None, confidence=None) -> None:
        """Replace branch predictor / BTB / cache hierarchy with
        pre-warmed instances (the sampling engine's functional warm-up
        trains them on the fast-forwarded stream). ``confidence`` is
        accepted for CPR's estimator and ignored elsewhere."""
        if predictor is not None:
            self.predictor = predictor
            self.fetch.predictor = predictor
        if btb is not None:
            self.btb = btb
            self.fetch.btb = btb
        if hierarchy is not None:
            self.hierarchy = hierarchy
            self.fetch.hierarchy = hierarchy

    # ------------------------------------------------------------------ #
    # Observability (repro.obs).
    # ------------------------------------------------------------------ #

    def attach_tracer(self, tracer) -> None:
        """Arm pipeline lifecycle tracing
        (:class:`repro.obs.PipelineTracer`)."""
        self.tracer = tracer
        self.fetch.tracer = tracer

    def attach_metrics(self, recorder) -> None:
        """Arm interval metrics sampling
        (:class:`repro.obs.IntervalRecorder`)."""
        recorder.bind(self)
        self._metrics = recorder

    # ------------------------------------------------------------------ #
    # Top level.
    # ------------------------------------------------------------------ #

    def run(self, max_instructions: int = 50_000,
            max_cycles: Optional[int] = None) -> SimStats:
        """Simulate until ``max_instructions`` commit, HALT, or cycle cap."""
        cycle_cap = max_cycles if max_cycles is not None \
            else max_instructions * 200 + 100_000
        stats = self.stats
        if not self._sched_event:
            while (not self.done and stats.committed < max_instructions
                   and stats.cycles < cycle_cap):
                self.cycle()
            return stats
        while (not self.done and stats.committed < max_instructions
               and stats.cycles < cycle_cap):
            self.cycle()
            if self._quiet and self.commit_settled():
                bound = self._next_event_cycle()
                horizon = self.now + (cycle_cap - stats.cycles)
                if bound is None or bound > horizon:
                    bound = horizon
                if bound > self.now:
                    self._skip_quiet_cycles(bound - self.now)
        return stats

    def cycle(self) -> None:
        now = self.now
        stats = self.stats
        stats.cycles += 1
        if not self._sched_event:
            self.commit_stage(now)
            if not self.done:
                self.writeback_stage(now)
                self.issue_stage(now)
                self.dispatch_stage(now)
                self.fetch.cycle(now)
            self.now = now + 1
            return
        fetch = self.fetch
        before = (stats.committed, stats.issued, stats.dispatched,
                  stats.recoveries, stats.exceptions_taken,
                  stats.checkpoints_created, stats.squashed, fetch.fetched)
        self._wb_live = False
        self._ready_dropped = False
        self._last_stall_reason = None
        self.commit_stage(now)
        if not self.done:
            self.writeback_stage(now)
            self.issue_stage(now)
            self.dispatch_stage(now)
            fetch.cycle(now)
        self._quiet = (not self.done and not self._wb_live
                       and not self._ready_dropped
                       and before == (stats.committed, stats.issued,
                                      stats.dispatched, stats.recoveries,
                                      stats.exceptions_taken,
                                      stats.checkpoints_created,
                                      stats.squashed, fetch.fetched))
        self.now = now + 1

    # ------------------------------------------------------------------ #
    # Idle skip (event scheduler): a *quiet* cycle changed no machine
    # state — nothing committed, wrote back, issued, dispatched or
    # fetched, no recovery ran and the ready window kept every entry.
    # Re-simulating such cycles until the next event only ticks the same
    # counters, so ``run`` jumps straight to the earliest cycle at which
    # anything can happen and replays the per-cycle accounting in bulk.
    # ------------------------------------------------------------------ #

    def _next_event_cycle(self) -> Optional[int]:
        """Earliest future cycle at which machine state can change:
        the next completion event, the cycle a stalled fetch resumes,
        or the cycle a dispatched-but-not-yet-eligible instruction in
        the examined issue window becomes issuable. ``None`` when no
        event is pending (the machine can only spin to its cycle cap).
        """
        bound: Optional[int] = None
        if self._completions:
            bound = min(self._completions)
        fetch = self.fetch
        if not fetch.halted and len(fetch.buffer) < fetch.buffer_capacity:
            resume = fetch.stalled_until
            if bound is None or resume < bound:
                bound = resume
        timed = self._next_timed
        if timed is not None and (bound is None or timed < bound):
            bound = timed
        return bound

    def _skip_quiet_cycles(self, count: int) -> None:
        """Account ``count`` quiet cycles without simulating them."""
        self.stats.cycles += count
        self.skipped_cycles += count
        reason = self._last_stall_reason
        if reason is not None:
            self.stats.dispatch_stall_cycles[reason] += count
            self.on_dispatch_stall_bulk(reason, count)
        self.fetch.skip_cycles(self.now, count)
        self.now += count

    def commit_settled(self) -> bool:
        """True when re-running the commit stage against frozen machine
        state is a provable no-op, so quiet cycles may be skipped in
        bulk (MSP requires its pipelined LCS min-tree to have drained
        to a fixpoint)."""
        return True

    # ------------------------------------------------------------------ #
    # Writeback / completion.
    # ------------------------------------------------------------------ #

    def writeback_stage(self, now: int) -> None:
        completed = self._completions.pop(now, None)
        if not completed:
            return
        # Resolve strictly oldest-first.  Buckets accumulate in issue
        # order, so a younger long-latency branch could otherwise be
        # examined before an older same-cycle mispredict: it would train
        # the predictor, repair history and trigger a recovery of its
        # own even though the older branch's squash is about to prove it
        # wrong-path — re-repairing history and double-squashing state.
        # Age order makes the older squash land first, and the squashed
        # younger completions below are simply dropped.
        if len(completed) > 1:
            completed.sort()
        w = self.w
        mask = w.mask
        w_sq, w_st = w.sq, w.st
        live = [s for s in completed
                if w_sq[s & mask] == s and not w_st[s & mask] & SQUASHED]
        if not live:
            return
        self._wb_live = True
        if self._has_wb_filter:
            accepted, deferred = self.filter_writebacks(live, now)
            for s in deferred:
                self._completions.setdefault(now + 1, []).append(s)
        else:
            accepted = live
        complete = self._complete
        for s in accepted:
            slot = s & mask
            if w_st[slot] & SQUASHED:
                continue  # an earlier completion this cycle recovered
            complete(s, slot, now)

    def _complete(self, seq: int, slot: int, now: int) -> None:
        w = self.w
        w.st[slot] |= COMPLETED
        if self.tracer is not None:
            self.tracer.writeback(seq, now)
        pc = w.pc[slot]
        dec = self._dec
        kind = dec.kind[pc]
        if dec.wreg[pc]:
            dest = w.dest[slot]
            result = w.res[slot]
            values = self._value_table
            if values is not None:
                values[dest] = result
                self._ready_table[dest] = True
            else:
                self.write_result(slot)
            waiters = self._waiting.pop(dest, None)
            if waiters:
                wake = (self._ready_insert if self._sched_event
                        else self._ready_push)
                mask = w.mask
                w_sq, w_st, w_wc = w.sq, w.st, w.wc
                for ws in waiters:
                    wslot = ws & mask
                    if w_sq[wslot] != ws or w_st[wslot] & SQUASHED:
                        continue
                    count = w_wc[wslot] - 1
                    w_wc[wslot] = count
                    if count == 0:
                        wake(ws)
            watchers = self._addr_watch.pop(dest, None)
            if watchers:
                mask = w.mask
                w_sq, w_st = w.sq, w.st
                imms = dec.imm
                for ws in watchers:
                    wslot = ws & mask
                    if w_sq[wslot] == ws and not w_st[wslot] & SQUASHED:
                        addr = effective_address(result,
                                                 imms[w.pc[wslot]])
                        self.sq.set_address(w.se[wslot], addr)
        elif kind == 5:                  # store
            self.sq.execute(w.se[slot], w.ma[slot], w.sval[slot])
        if self._has_on_complete:
            self.on_complete(seq, slot)
        if kind == 1 or kind == 2 or kind == 3:
            self._resolve_control(seq, slot, pc, kind, now)

    def _ready_push(self, seq: int) -> None:
        heappush(self._ready, seq)

    def _ready_insert(self, seq: int) -> None:
        """Admit ``seq`` to the event scheduler's sorted ready window."""
        window = self._ready_list
        if not window or window[-1] < seq:
            window.append(seq)
        else:
            insort(window, seq)

    def _resolve_control(self, seq: int, slot: int, pc: int, kind: int,
                         now: int) -> None:
        w = self.w
        mispredicted = False
        if kind == 1:                    # conditional branch
            self.stats.branches += 1
            taken = w.atk[slot]
            prediction = w.pred[slot]
            self.predictor.update(prediction, taken)
            mispredicted = taken != w.ptk[slot]
            self.on_branch_resolved(slot, mispredicted)
            if mispredicted:
                self.stats.branch_mispredictions += 1
                # Repair speculative global history with the real outcome.
                prediction.taken = taken
                self.predictor.restore(prediction)
        elif kind == 3:                  # indirect jump
            target = w.atg[slot]
            correct = target == w.ptg[slot]
            self.btb.update(pc, target, correct)
            self.on_branch_resolved(slot, not correct)
            mispredicted = not correct
            ghr = w.ghr[slot]
            if mispredicted and ghr is not None:
                # Wipe squashed younger branches' speculative history
                # (an indirect jump shifts no direction history itself).
                self.predictor.set_history(ghr)
        if mispredicted:
            w.st[slot] |= MISPRED
            self.stats.recoveries += 1
            self.recover_from_branch(seq, slot, now)

    # ------------------------------------------------------------------ #
    # Issue / execute.
    # ------------------------------------------------------------------ #

    def issue_stage(self, now: int) -> None:
        if self._sched_event:
            self._issue_stage_event(now)
        else:
            self._issue_stage_scan(now)

    def _issue_stage_scan(self, now: int) -> None:
        """Reference issue loop: pop every candidate from the ready
        heap, re-pushing the ones that cannot issue this cycle."""
        self.fus.new_cycle()
        self.begin_issue_cycle()
        deferred: List[int] = []
        scanned = 0
        w = self.w
        mask = w.mask
        w_sq, w_st, w_eic, w_pc = w.sq, w.st, w.eic, w.pc
        dec = self._dec
        while (self._ready and self.fus.slots_left > 0
               and scanned < self.config.max_issue_scan):
            s = heappop(self._ready)
            scanned += 1
            slot = s & mask
            if w_sq[slot] != s or w_st[slot] & (SQUASHED | ISSUED):
                continue
            if w_eic[slot] > now:
                deferred.append(s)
                continue
            pc = w_pc[slot]
            kind = dec.kind[pc]
            if kind == 4:                # load
                addr = effective_address(
                    self.peek_operand(w.h0[slot]), dec.imm[pc])
                if self.sq.load_blocked(addr, s):
                    deferred.append(s)   # unresolved/conflicting store
                    continue
            if not self.fus.can_issue_code(dec.fu[pc]):
                deferred.append(s)
                continue
            if not self.acquire_read_ports(slot, pc):
                deferred.append(s)       # MSP bank read-port conflict
                continue
            self._issue(s, slot, pc, kind, now)
        for s in deferred:
            heappush(self._ready, s)

    def _issue_stage_event(self, now: int) -> None:
        """Event-scheduler issue walk: examine the front of the sorted
        ready window in place.  Identical candidate order, deferral
        rules and ``max_issue_scan`` budget accounting as the scan loop
        (stale and not-yet-eligible entries consume budget in both), but
        blocked candidates simply stay put instead of being heap-popped
        and re-pushed, and issued/stale entries are compacted out."""
        window = self._ready_list
        if not window:
            self._next_timed = None
            return
        fus = self.fus
        fus.new_cycle()
        if self._has_begin_issue:
            self.begin_issue_cycle()
        check_ports = self._has_read_ports
        values = self._value_table
        issue = self._issue
        sq = self.sq
        sq_pending = sq._pending_data
        # The SQ only changes between walks; unresolved-address seqs
        # iterate in ascending order, so the "any older store with an
        # unknown address" half of load_blocked is one compare.
        sq_oldest_unknown = -1
        for _q in sq._unknown_addr:
            sq_oldest_unknown = _q
            break
        fu_used = fus._used
        fu_limits = fus._limits
        budget = self.config.max_issue_scan
        slots = fus.issue_width
        next_timed: Optional[int] = None
        w = self.w
        mask = w.mask
        w_sq, w_st, w_eic, w_pc, w_h0 = w.sq, w.st, w.eic, w.pc, w.h0
        w_ma = w.ma
        dec = self._dec
        kinds, imms, fu_codes = dec.kind, dec.imm, dec.fu
        read = 0
        write = 0
        n = len(window)
        if budget < n:
            n = budget                         # scan-budget cap
        while read < n:
            s = window[read]
            read += 1
            slot = s & mask
            st = w_st[slot]
            if w_sq[slot] != s or st & 5:      # stale, squashed or issued
                self._ready_dropped = True
                continue                       # compacted out
            eic = w_eic[slot]
            if eic > now:
                if next_timed is None or eic < next_timed:
                    next_timed = eic
                window[write] = s
                write += 1
                continue
            pc = w_pc[slot]
            kind = kinds[pc]
            if kind == 4:                      # load
                # The base register cannot be freed or rewritten while
                # the load is in flight (commit is in order), so the
                # effective address is computed once and memoised in the
                # ``ma`` column across blocked re-visits.
                addr = w_ma[slot]
                if addr < 0:
                    base = (values[w_h0[slot]] if values is not None
                            else self.peek_operand(w_h0[slot]))
                    if type(base) is int:
                        addr = (base + imms[pc]) & _ADDR_MASK
                    else:
                        addr = effective_address(base, imms[pc])
                    w_ma[slot] = addr
                # StoreQueue.load_blocked, inline.
                if -1 < sq_oldest_unknown < s:
                    window[write] = s          # unresolved older store
                    write += 1
                    continue
                if sq_pending:
                    pend = sq_pending.get(addr)
                    if pend is not None:
                        blocked = False
                        for _e in pend:
                            if _e.seq < s:
                                blocked = True
                                break
                        if blocked:            # conflicting older store
                            window[write] = s
                            write += 1
                            continue
            code = fu_codes[pc]
            if fu_used[code] >= fu_limits[code]:
                window[write] = s
                write += 1
                continue
            if check_ports and not self.acquire_read_ports(slot, pc):
                window[write] = s              # MSP bank read-port conflict
                write += 1
                continue
            issue(s, slot, pc, kind, now)      # compacted out
            slots -= 1
            if slots <= 0:
                break
        if write != read:
            del window[write:read]
        self._next_timed = next_timed

    def _issue(self, seq: int, slot: int, pc: int, kind: int,
               now: int) -> None:
        w = self.w
        w.st[slot] |= ISSUED
        if self.tracer is not None:
            self.tracer.issue(seq, now)
        dec = self._dec
        self.stats.issued += 1
        self.fus.issue_code(dec.fu[pc])
        self.iq_count -= 1
        nsrc = dec.nsrc[pc]
        v0 = v1 = None
        if nsrc:
            if self._read_direct:
                values = self._value_table
                v0 = values[w.h0[slot]]
                if nsrc > 1:
                    v1 = values[w.h1[slot]]
            else:
                v0 = self.read_operand(w.h0[slot])
                if nsrc > 1:
                    v1 = self.read_operand(w.h1[slot])
        latency = self._execute(seq, slot, pc, kind, v0, v1)
        completions = self._completions
        finish = now + latency
        w.fin[slot] = finish
        bucket = completions.get(finish)
        if bucket is None:
            completions[finish] = [seq]
        else:
            bucket.append(seq)

    def _execute(self, seq: int, slot: int, pc: int, kind: int,
                 v0, v1) -> int:
        """Functional execution; returns result latency in cycles."""
        w = self.w
        dec = self._dec
        if kind == 0:                        # plain register-writing op
            srcs = (v0, v1) if dec.nsrc[pc] > 1 \
                else ((v0,) if dec.nsrc[pc] else ())
            w.res[slot] = dec.evalf[pc](srcs, dec.imm[pc])
            return dec.lat[pc]
        if kind == 1:                        # conditional branch
            srcs = (v0, v1) if dec.nsrc[pc] > 1 else (v0,)
            w.atk[slot] = taken = dec.branchf[pc](srcs)
            w.atg[slot] = dec.target[pc] if taken else pc + 1
            return dec.lat[pc]
        if kind == 4:                        # load
            imm = dec.imm[pc]
            if type(v0) is int:
                addr = (v0 + imm) & _ADDR_MASK
            else:
                addr = effective_address(v0, imm)
            w.ma[slot] = addr
            forwarded, penalty = self.sq.forward(addr, seq)
            is_fld = dec.code[pc] == _FLD
            if forwarded is not None:
                w.res[slot] = float(forwarded) if is_fld else forwarded
                return 1 + penalty
            value = self.memory.get(addr, 0)
            w.res[slot] = float(value) if is_fld else value
            return self.hierarchy.load_latency(addr)
        if kind == 5:                        # store
            imm = dec.imm[pc]
            w.sval[slot] = v0
            if type(v1) is int:
                w.ma[slot] = (v1 + imm) & _ADDR_MASK
            else:
                w.ma[slot] = effective_address(v1, imm)
            return 1
        if kind == 2:                        # direct jump
            w.atk[slot] = True
            w.atg[slot] = dec.target[pc]
            return dec.lat[pc]
        if kind == 3:                        # indirect jump
            w.atk[slot] = True
            w.atg[slot] = int(v0)
            return dec.lat[pc]
        raise AssertionError(f"kind {kind} reached execute")

    # ------------------------------------------------------------------ #
    # Dispatch (rename + allocate).
    # ------------------------------------------------------------------ #

    def dispatch_stage(self, now: int) -> None:
        buffer = self.fetch.buffer
        if not buffer:
            return
        if self._has_begin_dispatch or not self._sched_event:
            self.begin_dispatch_cycle()
        rename_width = self.config.rename_width
        iq_size = self.config.iq_size
        w = self.w
        mask = w.mask
        dec = self._dec
        moved = 0
        stall_reason: Optional[str] = None
        while moved < rename_width and buffer:
            s = buffer[0]
            slot = s & mask
            pc = w.pc[slot]
            kind = dec.kind[pc]
            if kind == 6:                # NOP/HALT
                buffer.pop(0)
                w.st[slot] |= COMPLETED
                self.assign_state_tag(slot)
                self.in_flight.append(s)
                self.stats.dispatched += 1
                if self.tracer is not None:
                    self.tracer.dispatch(s, now)
                moved += 1
                continue

            if self.iq_count >= iq_size:
                stall_reason = "iq_full"
                break
            if kind == 4 and self.load_buffer.is_full():
                stall_reason = "load_buffer_full"
                break
            if kind == 5 and self.sq.is_full():
                stall_reason = "store_queue_full"
                break
            stall_reason = self.dispatch_blocked(s, slot, pc, moved)
            if stall_reason is not None:
                break

            buffer.pop(0)
            self.rename(s, slot, pc)
            self._wire_dependencies(s, slot, pc, kind, now)
            if self.tracer is not None:
                self.tracer.dispatch(s, now)
            moved += 1

        if moved == 0 and stall_reason is not None:
            self._last_stall_reason = stall_reason
            self.stats.dispatch_stall_cycles[stall_reason] += 1
            if self.tracer is not None:
                self.tracer.stall(buffer[0], now, stall_reason)
            self.on_dispatch_stall(stall_reason)

    def _wire_dependencies(self, seq: int, slot: int, pc: int, kind: int,
                           now: int) -> None:
        waiting = self._waiting
        ready_table = self._ready_table
        w = self.w
        dec = self._dec
        nsrc = dec.nsrc[pc]
        wait_count = 0
        for i in range(nsrc):
            handle = w.h0[slot] if i == 0 else w.h1[slot]
            ready = (ready_table[handle] if ready_table is not None
                     else self.handle_ready(handle))
            if not ready:
                wait_count += 1
                lst = waiting.get(handle)
                if lst is None:
                    waiting[handle] = [seq]
                else:
                    lst.append(seq)
        w.wc[slot] = wait_count
        w.eic[slot] = now + 1 + self.extra_dispatch_delay
        if kind == 5:                    # store
            w.se[slot] = self.sq.allocate(seq)
            # Early AGU: resolve the address as soon as the base operand
            # is available, possibly long before the store issues.
            base = w.h1[slot]
            if (ready_table[base] if ready_table is not None
                    else self.handle_ready(base)):
                addr = effective_address(self.peek_operand(base),
                                         dec.imm[pc])
                self.sq.set_address(w.se[slot], addr)
            else:
                self._addr_watch.setdefault(base, []).append(seq)
        elif kind == 4:                  # load
            w.ma[slot] = -1              # address memo for the issue walk
            self.load_buffer.allocate()
        self.in_flight.append(seq)
        self.iq_count += 1
        self.stats.dispatched += 1
        if wait_count == 0:
            # A freshly dispatched instruction is the youngest in the
            # machine, so the event window admits it with an append.
            if self._sched_event:
                self._ready_list.append(seq)
            else:
                heappush(self._ready, seq)

    # ------------------------------------------------------------------ #
    # Commit helpers.
    # ------------------------------------------------------------------ #

    def commit_one(self, seq: int, slot: int, now: int) -> bool:
        """Commit the in-flight head; False if an exception interrupted."""
        ordinal = self.commit_ordinal
        if (ordinal in self.exception_plan
                and ordinal not in self._exceptions_taken):
            self._exceptions_taken.add(ordinal)
            self.stats.exceptions_taken += 1
            self.stats.recoveries += 1
            self.take_exception(seq, slot, now)
            return False
        self.commit_ordinal += 1
        self.stats.committed += 1
        if self.tracer is not None:
            self.tracer.commit(seq, now, ordinal)
        metrics = self._metrics
        if metrics is not None \
                and self.stats.committed % metrics.interval == 0:
            metrics.sample(self)
        pc = self.w.pc[slot]
        if self.commit_trace is not None:
            self.commit_trace.append(pc)
        code = self._dec.code[pc]
        if self._dec.kind[pc] == 4:
            self.load_buffer.release()
        elif code == _HALT:
            self.done = True
        return True

    def pending_exception_offset(self, count: int) -> Optional[int]:
        """Offset (< count) of the first planned exception among the next
        ``count`` commit ordinals, or None. Used by CPR's bulk commit to
        pre-scan an interval before committing any of it."""
        if not self.exception_plan:
            return None
        for offset in range(count):
            ordinal = self.commit_ordinal + offset
            if (ordinal in self.exception_plan
                    and ordinal not in self._exceptions_taken):
                return offset
        return None

    def commit_store_write(self, addr: int, value) -> None:
        self.memory[addr] = value
        self.hierarchy.store_commit(addr)

    def repair_history_at(self, slot: int) -> None:
        """Restore predictor history to the point just before this
        instruction was fetched (exception recovery re-fetches its PC)."""
        ghr = self.w.ghr[slot]
        if ghr is not None:
            self.predictor.set_history(ghr)

    # ------------------------------------------------------------------ #
    # Squash.
    # ------------------------------------------------------------------ #

    def squash_after(self, boundary_seq: int,
                     fault_seq: int) -> List[int]:
        """Remove every in-flight instruction with ``seq > boundary_seq``.

        ``fault_seq`` classifies the Fig. 9 accounting: squashed *issued*
        instructions with ``seq > fault_seq`` were wrong-path; the rest
        were correct-path work that will be re-executed (CPR rollback past
        a checkpoint, or an exception replay).

        Returns the squashed seqs, youngest first, so the architecture
        can undo its own state for them (their window slots stay owned
        until fetch recycles them, so columns remain readable).

        The event scheduler additionally unlinks each squashed waiter
        from the per-operand wakeup map and purges the squashed
        instructions' pending completion events, so a producer that
        later reuses a freed register handle never walks zombie waiter
        lists and the completion wheel holds no stale wakeup times (the
        idle skip keys its next-event bound off that wheel).  Entries
        already admitted to the ready window are left to be dropped by
        the next walk — exactly when the reference scan loop would pop
        and discard them, so the shared ``max_issue_scan`` budget
        accounting stays bit-identical.
        """
        squashed: List[int] = []
        purge = self._sched_event
        waiting = self._waiting
        addr_watch = self._addr_watch
        tracer = self.tracer
        in_flight = self.in_flight
        w = self.w
        mask = w.mask
        w_st = w.st
        dec = self._dec
        stats = self.stats
        while in_flight and in_flight[-1] > boundary_seq:
            s = in_flight.pop()
            slot = s & mask
            st = w_st[slot]
            w_st[slot] = st | SQUASHED
            squashed.append(s)
            if tracer is not None:
                tracer.squash(s, self.now)
            stats.squashed += 1
            pc = w.pc[slot]
            kind = dec.kind[pc]
            if st & ISSUED:
                if s > fault_seq:
                    stats.wrong_path_executed += 1
                else:
                    stats.correct_path_reexecuted += 1
            elif not st & COMPLETED:
                self.iq_count -= 1
                if purge:
                    if w.wc[slot]:
                        for i in range(dec.nsrc[pc]):
                            handle = w.h0[slot] if i == 0 else w.h1[slot]
                            lst = waiting.get(handle)
                            if lst is not None:
                                try:
                                    lst.remove(s)
                                except ValueError:
                                    pass
                    if kind == 5:
                        lst = addr_watch.get(w.h1[slot])
                        if lst is not None:
                            try:
                                lst.remove(s)
                            except ValueError:
                                pass
            if kind == 4:
                self.load_buffer.release()
        if purge and squashed:
            # Targeted purge: an issued-but-incomplete instruction has
            # exactly one pending completion event, at the cycle the
            # ``fin`` column recorded at issue.  (A bucket already
            # popped by this cycle's writeback is simply absent — its
            # in-loop ownership recheck drops the squashed entry.)
            completions = self._completions
            w_fin = w.fin
            for s in squashed:
                slot = s & mask
                st = w_st[slot]
                if st & ISSUED and not st & COMPLETED:
                    finish = w_fin[slot]
                    bucket = completions.get(finish)
                    if bucket is not None:
                        try:
                            bucket.remove(s)
                        except ValueError:
                            pass
                        if not bucket:
                            del completions[finish]
        self.sq.squash_after(boundary_seq)
        if tracer is not None:
            # Buffered (fetched, never dispatched) younger instructions
            # are dropped by the fetch engine below; trace them too so
            # the viewer closes their fetch stage.
            for s in self.fetch.buffer:
                if s > boundary_seq:
                    tracer.squash(s, self.now)
        self.fetch.squash_after(boundary_seq)
        return squashed

    # ------------------------------------------------------------------ #
    # Architecture hooks.  Instructions are identified by (seq, slot);
    # ``slot`` is ``seq & window.mask`` at call time (growth can only
    # happen at a fetch-group boundary, never between the computation of
    # a slot and the hook call that consumes it).
    # ------------------------------------------------------------------ #

    @abstractmethod
    def commit_stage(self, now: int) -> None:
        """Retire completed instructions per the machine's commit rules."""

    @abstractmethod
    def dispatch_blocked(self, seq: int, slot: int, pc: int,
                         moved: int) -> Optional[str]:
        """Stall reason preventing this instruction from dispatching."""

    @abstractmethod
    def rename(self, seq: int, slot: int, pc: int) -> None:
        """Rename sources, allocate the destination, fill h0/h1/dest."""

    @abstractmethod
    def recover_from_branch(self, seq: int, slot: int, now: int) -> None:
        """Squash and restore state for the mispredicted instruction."""

    @abstractmethod
    def take_exception(self, seq: int, slot: int, now: int) -> None:
        """Recover for an exception raised by a committable instruction."""

    @abstractmethod
    def handle_ready(self, handle: Any) -> bool:
        """Is the physical register behind ``handle`` ready to read?"""

    @abstractmethod
    def read_operand(self, handle: Any):
        """Read a (ready) physical register value."""

    @abstractmethod
    def peek_operand(self, handle: Any):
        """Read a ready value with *no* side effects (no use-bit clear,
        no reference-count release) — used by the early AGU and the
        load disambiguation check."""

    @abstractmethod
    def write_result(self, slot: int) -> None:
        """Write ``w.res[slot]`` to its destination register, mark ready."""

    def assign_state_tag(self, slot: int) -> None:
        """Tag NOP/HALT with the current state (MSP overrides)."""

    def begin_dispatch_cycle(self) -> None:
        """Per-cycle dispatch-group state reset (MSP rename limits)."""

    def begin_issue_cycle(self) -> None:
        """Per-cycle issue-port state reset (MSP read-port arbitration)."""

    def acquire_read_ports(self, slot: int, pc: int) -> bool:
        """Try to claim register-file read ports (MSP)."""
        return True

    def filter_writebacks(self, completed: List[int], now: int):
        """Split completions into (accepted, deferred) per write ports."""
        return completed, []

    def on_complete(self, seq: int, slot: int) -> None:
        """Architecture bookkeeping when an instruction finishes."""

    def on_branch_resolved(self, slot: int, mispredicted: bool) -> None:
        """CPR trains its confidence estimator here."""

    def on_dispatch_stall(self, reason: str) -> None:
        """Called when a whole dispatch cycle stalled (MSP attributes
        bank-full stalls to the blocking logical register here)."""

    def on_dispatch_stall_bulk(self, reason: str, count: int) -> None:
        """Replay ``count`` per-cycle :meth:`on_dispatch_stall` calls
        during the idle skip, in O(1) where possible.  Machine state is
        frozen across the skipped cycles, so the per-cycle hook is a
        pure function of that frozen state: one call reproduces the
        cumulative effect of ``count`` unless the hook mutates
        per-cycle counters (MSP overrides this with a bulk add).  The
        base hook is a no-op, so the default does nothing when it is
        not overridden."""
        if type(self).on_dispatch_stall is not \
                OutOfOrderCore.on_dispatch_stall:
            self.on_dispatch_stall(reason)
