"""Programs and the label-based program builder.

A :class:`Program` is the unit the simulator runs: instruction memory,
initial data memory and an entry point. :class:`ProgramBuilder` is a tiny
assembler used by :mod:`repro.workloads` to emit the synthetic SPEC-like
kernels; it supports forward label references and sequential data-region
allocation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Op
from repro.isa.semantics import Value

#: Data regions are allocated upward from this word address, leaving low
#: addresses free for ad-hoc scratch use by tests.
DATA_BASE = 0x1000


class DecodedProgram:
    """Flat parallel-array predecode of a program's instruction memory.

    One list per field (opcode value, sources, destination, immediate,
    target), indexed by PC.  The emulator's fast interpreter loop
    dispatches on ``code[pc]`` — a plain int compare — instead of
    touching ``Instruction`` attributes; unused register fields are 0 so
    indexed reads never need a None check (the per-opcode dispatch
    decides which fields are meaningful).  ``insts`` keeps the decoded
    ``Instruction`` objects for the rare generic-semantics fallback.
    """

    __slots__ = ("size", "code", "s0", "s1", "dest", "imm", "target",
                 "insts", "has_wild_targets", "kind", "fu", "lat",
                 "nsrc", "wreg", "evalf", "branchf")

    def __init__(self, instructions: Sequence[Instruction]) -> None:
        self.insts: List[Instruction] = list(instructions)
        self.size = len(self.insts)
        self.code = [inst.op.value for inst in self.insts]
        self.s0 = [inst.srcs[0] if inst.srcs else 0 for inst in self.insts]
        self.s1 = [inst.srcs[1] if len(inst.srcs) > 1 else 0
                   for inst in self.insts]
        self.dest = [inst.dest if inst.dest is not None else 0
                     for inst in self.insts]
        self.imm = [inst.imm for inst in self.insts]
        self.target = [inst.target if inst.target is not None else 0
                       for inst in self.insts]
        # Static timing-core columns (structure-of-arrays in-flight
        # state reads per-PC metadata from here instead of touching
        # Instruction objects on the hot path).
        self.kind = [inst.kind for inst in self.insts]
        self.fu = [inst.fu_code for inst in self.insts]
        self.lat = [inst.latency for inst in self.insts]
        self.nsrc = [len(inst.srcs) for inst in self.insts]
        self.wreg = [inst.writes_reg for inst in self.insts]
        self.evalf = [inst.eval_fn for inst in self.insts]
        self.branchf = [inst.branch_fn for inst in self.insts]
        #: A negative *static* target would wrap Python's list indexing
        #: in the fast loop (the reference path treats it as PC
        #: fall-off); such programs can't come from ProgramBuilder, so
        #: flag them here and let run_fast take the reference path.
        self.has_wild_targets = any(
            inst.target is not None and inst.target < 0
            for inst in self.insts)


class Program:
    """A complete executable: instruction memory + initial data memory.

    Programs are immutable once built: the decoded fast-dispatch arrays
    (:attr:`decoded`) are computed once and cached.
    """

    def __init__(
        self,
        name: str,
        instructions: Sequence[Instruction],
        initial_memory: Optional[Dict[int, Value]] = None,
        labels: Optional[Dict[str, int]] = None,
    ) -> None:
        self.name = name
        self.instructions: List[Instruction] = list(instructions)
        self.initial_memory: Dict[int, Value] = dict(initial_memory or {})
        self.labels: Dict[str, int] = dict(labels or {})
        self.entry = 0
        self._memory_lines: Optional[List[int]] = None
        self._decoded: Optional[DecodedProgram] = None
        self._fingerprint: Optional[str] = None

    @property
    def decoded(self) -> DecodedProgram:
        """Flat predecoded arrays for the emulator's fast loop (cached;
        built on first use so programs constructed purely for listings
        or analysis never pay for it)."""
        if self._decoded is None:
            self._decoded = DecodedProgram(self.instructions)
        return self._decoded

    @property
    def memory_line_addrs(self) -> List[int]:
        """One representative word address per initialised 8-word cache
        line, in address order (cached; used for cache warming)."""
        if self._memory_lines is None:
            lines = sorted({addr >> 3 for addr in self.initial_memory})
            self._memory_lines = [line << 3 for line in lines]
        return self._memory_lines

    def content_fingerprint(self) -> str:
        """Stable content hash of the executable: every instruction
        field, the initial memory image (type-exact — an int and a
        float word are different values) and the entry point.  The
        display name is excluded: two identically-built programs are
        the same workload and may share cached functional artifacts
        (:mod:`repro.sim.artifacts`).  Cached — programs are immutable
        once built."""
        if self._fingerprint is None:
            import hashlib
            digest = hashlib.sha256()
            for inst in self.instructions:
                digest.update(repr(
                    (inst.op.value, inst.dest, tuple(inst.srcs),
                     inst.imm, inst.target)).encode("utf-8"))
            for addr in sorted(self.initial_memory):
                value = self.initial_memory[addr]
                digest.update(
                    f"{addr}:{value.__class__.__name__}:{value!r};"
                    .encode("utf-8"))
            digest.update(str(self.entry).encode("utf-8"))
            self._fingerprint = digest.hexdigest()[:32]
        return self._fingerprint

    def __len__(self) -> int:
        return len(self.instructions)

    def fetch(self, pc: int) -> Optional[Instruction]:
        """Instruction at ``pc``, or ``None`` if the PC fell off the program."""
        if 0 <= pc < len(self.instructions):
            return self.instructions[pc]
        return None

    def listing(self) -> str:
        """Assembly-style listing, for debugging workloads."""
        by_pc: Dict[int, List[str]] = {}
        for label, pc in self.labels.items():
            by_pc.setdefault(pc, []).append(label)
        lines = []
        for pc, inst in enumerate(self.instructions):
            for label in by_pc.get(pc, ()):
                lines.append(f"{label}:")
            lines.append(f"  {pc:5d}  {inst!r}")
        return "\n".join(lines)


class _LabelRef:
    """Placeholder target recorded until labels are resolved."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class ProgramBuilder:
    """Emit instructions with symbolic labels, then :meth:`build` a Program.

    Branch/jump targets may be given as a label string (forward references
    allowed) or as an absolute PC integer.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._fixups: List[int] = []       # indices with _LabelRef targets
        self._memory: Dict[int, Value] = {}
        self._next_data = DATA_BASE

    # ------------------------------------------------------------------ #
    # Labels and data.
    # ------------------------------------------------------------------ #

    def label(self, name: str) -> None:
        """Define ``name`` at the current PC."""
        if name in self._labels:
            raise ValueError(f"duplicate label {name!r} in {self.name}")
        self._labels[name] = len(self._instructions)

    @property
    def pc(self) -> int:
        """PC of the next instruction to be emitted."""
        return len(self._instructions)

    def data_region(self, values: Iterable[Value], align: int = 1) -> int:
        """Allocate a data region initialised with ``values``; return its base."""
        if align > 1:
            self._next_data += (-self._next_data) % align
        base = self._next_data
        count = 0
        for offset, value in enumerate(values):
            self._memory[base + offset] = value
            count += 1
        self._next_data = base + count
        return base

    def reserve(self, count: int, fill: Value = 0, align: int = 1) -> int:
        """Allocate ``count`` words initialised to ``fill``; return the base."""
        return self.data_region([fill] * count, align=align)

    # ------------------------------------------------------------------ #
    # Raw emit plus one helper per opcode.
    # ------------------------------------------------------------------ #

    def emit(
        self,
        op: Op,
        dest: Optional[int] = None,
        srcs: Sequence[int] = (),
        imm: int = 0,
        target: Union[str, int, None] = None,
    ) -> int:
        """Emit one instruction; returns its PC."""
        resolved: Optional[int]
        if isinstance(target, str):
            resolved = 0  # patched in build()
        else:
            resolved = target
        inst = Instruction(op, dest=dest, srcs=tuple(srcs), imm=imm,
                           target=resolved)
        pc = len(self._instructions)
        self._instructions.append(inst)
        if isinstance(target, str):
            inst.target = _LabelRef(target)  # type: ignore[assignment]
            self._fixups.append(pc)
        return pc

    def add(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.ADD, rd, (rs1, rs2))

    def sub(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.SUB, rd, (rs1, rs2))

    def mul(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.MUL, rd, (rs1, rs2))

    def div(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.DIV, rd, (rs1, rs2))

    def and_(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.AND, rd, (rs1, rs2))

    def or_(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.OR, rd, (rs1, rs2))

    def xor(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.XOR, rd, (rs1, rs2))

    def shl(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.SHL, rd, (rs1, rs2))

    def shr(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.SHR, rd, (rs1, rs2))

    def slt(self, rd: int, rs1: int, rs2: int) -> int:
        return self.emit(Op.SLT, rd, (rs1, rs2))

    def addi(self, rd: int, rs: int, imm: int) -> int:
        return self.emit(Op.ADDI, rd, (rs,), imm=imm)

    def li(self, rd: int, imm: int) -> int:
        return self.emit(Op.LI, rd, imm=imm)

    def mov(self, rd: int, rs: int) -> int:
        return self.emit(Op.MOV, rd, (rs,))

    def fadd(self, fd: int, fs1: int, fs2: int) -> int:
        return self.emit(Op.FADD, fd, (fs1, fs2))

    def fsub(self, fd: int, fs1: int, fs2: int) -> int:
        return self.emit(Op.FSUB, fd, (fs1, fs2))

    def fmul(self, fd: int, fs1: int, fs2: int) -> int:
        return self.emit(Op.FMUL, fd, (fs1, fs2))

    def fdiv(self, fd: int, fs1: int, fs2: int) -> int:
        return self.emit(Op.FDIV, fd, (fs1, fs2))

    def fmov(self, fd: int, fs: int) -> int:
        return self.emit(Op.FMOV, fd, (fs,))

    def fcvt(self, fd: int, rs: int) -> int:
        return self.emit(Op.FCVT, fd, (rs,))

    def fcmplt(self, rd: int, fs1: int, fs2: int) -> int:
        return self.emit(Op.FCMPLT, rd, (fs1, fs2))

    def ld(self, rd: int, base: int, offset: int = 0) -> int:
        return self.emit(Op.LD, rd, (base,), imm=offset)

    def st(self, rv: int, base: int, offset: int = 0) -> int:
        return self.emit(Op.ST, srcs=(rv, base), imm=offset)

    def fld(self, fd: int, base: int, offset: int = 0) -> int:
        return self.emit(Op.FLD, fd, (base,), imm=offset)

    def fst(self, fv: int, base: int, offset: int = 0) -> int:
        return self.emit(Op.FST, srcs=(fv, base), imm=offset)

    def beq(self, rs1: int, rs2: int, target: Union[str, int]) -> int:
        return self.emit(Op.BEQ, srcs=(rs1, rs2), target=target)

    def bne(self, rs1: int, rs2: int, target: Union[str, int]) -> int:
        return self.emit(Op.BNE, srcs=(rs1, rs2), target=target)

    def blt(self, rs1: int, rs2: int, target: Union[str, int]) -> int:
        return self.emit(Op.BLT, srcs=(rs1, rs2), target=target)

    def bge(self, rs1: int, rs2: int, target: Union[str, int]) -> int:
        return self.emit(Op.BGE, srcs=(rs1, rs2), target=target)

    def beqz(self, rs: int, target: Union[str, int]) -> int:
        return self.emit(Op.BEQZ, srcs=(rs,), target=target)

    def bnez(self, rs: int, target: Union[str, int]) -> int:
        return self.emit(Op.BNEZ, srcs=(rs,), target=target)

    def jmp(self, target: Union[str, int]) -> int:
        return self.emit(Op.JMP, target=target)

    def jr(self, rs: int) -> int:
        return self.emit(Op.JR, srcs=(rs,))

    def nop(self) -> int:
        return self.emit(Op.NOP)

    def halt(self) -> int:
        return self.emit(Op.HALT)

    # ------------------------------------------------------------------ #

    def build(self) -> Program:
        """Resolve labels and return the finished :class:`Program`."""
        for pc in self._fixups:
            inst = self._instructions[pc]
            ref = inst.target
            assert isinstance(ref, _LabelRef)
            if ref.name not in self._labels:
                raise ValueError(
                    f"undefined label {ref.name!r} in {self.name}")
            inst.target = self._labels[ref.name]
        self._fixups.clear()
        return Program(self.name, self._instructions, self._memory,
                       self._labels)
