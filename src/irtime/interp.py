"""Execution-driven interpreter for the IR subset.

Values live in virtual registers per call frame; memory is a flat 32-bit
space with three bump-allocated regions (globals, stack, heap) at fixed
bases so traces are reproducible run to run.  Integer arithmetic wraps in
two's complement at the operand width, float arithmetic runs in IEEE double
and results of `float`-typed operations are rounded to 32-bit precision.

Probes observe execution without affecting it: block entries, executed
instructions, loads/stores with concrete addresses, conditional branch
outcomes, memory-routine volumes, and calls.  The memcpy/memset/calloc/
malloc routines move bytes but bypass the load/store probes; they report a
single volume event instead, mirroring how the feature table accounts for
them.

Each segment of a block, or each loop that calls no function body and holds
no inner loop, is compiled into one generated Python function when the
Interpreter is constructed; see "generated segment functions" below.
"""

import collections
import contextlib
import marshal
import math
import struct
import threading
from dataclasses import dataclass

from .errors import (
    InterpreterError, StepLimitExceeded, OutOfBoundsAccess,
    DivisionByZero, StackOverflow, HeapExhausted, InvalidConfigError,
)
from .irtypes import SCALARS, signed as _signed
from .irmodel import (
    TERMINATORS, Const, LocalRef, GlobalRef, ConstGep, mem_intrinsic_kind, is_recognized_callee,
)
from .cache import CacheModel, CacheConfig
from .trace import (
    TraceBuilder, ExecutionTrace, JUMP, LOADS, STORES, VOLUMES, TAKEN, NOT_TAKEN,
    TAKEN_FIXED, NOT_TAKEN_FIXED,
)

GLOBAL_BASE = 0x1000_0000
STACK_BASE = 0x2000_0000
HEAP_BASE = 0x3000_0000
REGION_SPAN = 0x1000_0000
FRAME_BYTES = 64        # charged per call frame against max_stack_bytes

_MASK32 = 0xFFFF_FFFF


@dataclass(frozen=True)
class RunLimits:
    """Bounds on one run.  `max_stack_bytes` bounds the `alloca` stack plus
    FRAME_BYTES for each call frame, the entry's included: a call whose
    frame would not fit raises StackOverflow, so recursion without `alloca`
    is bounded by memory as well as by steps.  The frames move no stack
    address.  `max_heap_bytes` bounds the heap, and also the globals
    region: a module whose globals do not fit fails with InterpreterError
    before it runs.  There is no separate limit for globals."""

    max_steps: int = 100_000_000
    max_stack_bytes: int = 16 * 1024 * 1024
    max_heap_bytes: int = 64 * 1024 * 1024

    def __post_init__(self):
        if self.max_steps <= 0:
            raise InvalidConfigError("max_steps must be positive")
        if not 0 < self.max_stack_bytes <= REGION_SPAN:
            raise InvalidConfigError("max_stack_bytes out of range")
        if not 0 < self.max_heap_bytes <= REGION_SPAN:
            raise InvalidConfigError("max_heap_bytes out of range")


class ProbeSet:
    """Optional callbacks fired during interpretation.

    block_enter(block_id), instruction(static_id, opcode),
    load(addr, nbytes), store(addr, nbytes), cond_branch(site_id, taken),
    mem_intrinsic(kind, nbytes).  Consecutive block_enter events are the
    block transitions.  An instruction observer slows every instruction;
    without one, no per-instruction work is done.  The trace of run() is
    not counted through these callbacks but inline in the generated code
    (see TraceBuilder); a ProbeSet passed to run() still sees every event.
    """

    __slots__ = ("block_enter", "instruction", "load", "store", "cond_branch",
                 "mem_intrinsic")

    def __init__(self, block_enter=None, instruction=None, load=None, store=None,
                 cond_branch=None, mem_intrinsic=None):
        self.block_enter = block_enter
        self.instruction = instruction
        self.load = load
        self.store = store
        self.cond_branch = cond_branch
        self.mem_intrinsic = mem_intrinsic


class _Region:
    """A bump region: `data` holds its bytes and `shadow` one byte per byte,
    1 where that byte has been written.  `clean` is the written prefix:
    every byte of `shadow[:clean]` is 1, and `shadow[clean]` is 0 when
    clean < top, so an access that ends at or below it needs no shadow.
    A byte whose shadow is 0 holds 0: `allocate` extends both arrays with
    zeros, every write sets the shadow, and `copy` moves data and shadow
    together.  So `release_to` zeroes a frame only up to its last written
    byte."""

    __slots__ = ("name", "base", "cap", "data", "shadow", "top", "clean")

    def __init__(self, name, base, cap):
        self.name = name
        self.base = base
        self.cap = cap
        self.data = bytearray()
        self.shadow = bytearray()
        self.top = 0
        self.clean = 0

    def allocate(self, size, align):
        top = (self.top + align - 1) // align * align
        new_top = top + max(size, 1)
        if new_top > self.cap:
            return None
        if new_top > len(self.data):
            grow = new_top - len(self.data)
            self.data.extend(bytes(grow))
            self.shadow.extend(bytes(grow))
        self.top = new_top
        return self.base + top

    def release_to(self, mark):
        if mark < self.top:
            end = self.shadow.rfind(1, mark, self.top) + 1
            if end > mark:
                self.data[mark:end] = bytes(end - mark)
                self.shadow[mark:end] = bytes(end - mark)
            self.top = mark
            if self.clean > mark:
                self.clean = mark

    def advance(self, off, end):
        """Bytes off..end have just been marked written: when they reach
        `clean`, move it to the first unwritten byte after them."""
        if off <= self.clean < end:
            first = self.shadow.find(0, end, self.top)
            self.clean = self.top if first < 0 else first


class MemoryImage:
    """Three bump regions; a load of allocated-but-unwritten bytes reads
    zeros and is counted in `uninitialized_loads` so the run can flag it.
    Each region keeps the invariant that `shadow[:clean]` is all ones, and
    a load or store that ends at or below `clean` skips the shadow."""

    def __init__(self, limits: RunLimits):
        self.globals = _Region("globals", GLOBAL_BASE, limits.max_heap_bytes)
        self.stack = _Region("stack", STACK_BASE, limits.max_stack_bytes)
        self.heap = _Region("heap", HEAP_BASE, limits.max_heap_bytes)
        self.global_addrs = {}
        self.uninitialized_loads = 0
        # addr // REGION_SPAN -> the region whose span holds addr
        self._regions = {r.base // REGION_SPAN: r for r in (self.globals, self.stack, self.heap)}

    def _locate(self, addr, nbytes):
        region = self._regions.get(addr // REGION_SPAN)
        if region is not None:
            off = addr - region.base
            if off + nbytes <= region.top:
                return region, off
        raise OutOfBoundsAccess(addr, nbytes)

    def write(self, addr, data):
        region, off = self._locate(addr, len(data))
        end = off + len(data)
        region.data[off:end] = data
        region.shadow[off:end] = b"\x01" * len(data)
        region.advance(off, end)

    # load and store run once per executed instruction, so they inline
    # _locate, copy no bytes beyond the value's own, and below `clean`
    # touch no shadow.

    def load(self, addr, nbytes, unpack_from):
        """unpack_from(data, offset)[0] for the `nbytes` at `addr`."""
        region = self._regions.get(addr // REGION_SPAN)
        if region is not None:
            off = addr - region.base
            end = off + nbytes
            if end <= region.top:
                if end > region.clean and region.shadow.find(0, off, end) >= 0:
                    self.uninitialized_loads += 1
                return unpack_from(region.data, off)[0]
        raise OutOfBoundsAccess(addr, nbytes)

    def store(self, addr, nbytes, pack_into, value, written):
        """pack_into(data, offset, value) at `addr`; `written` is `nbytes`
        one-bytes for the shadow."""
        region = self._regions.get(addr // REGION_SPAN)
        if region is not None:
            off = addr - region.base
            end = off + nbytes
            if end <= region.top:
                pack_into(region.data, off, value)
                if end > region.clean:
                    region.shadow[off:end] = written
                    region.advance(off, end)
                return
        raise OutOfBoundsAccess(addr, nbytes)

    def copy(self, dst, src, nbytes):
        if nbytes == 0:
            return
        sregion, soff = self._locate(src, nbytes)
        dregion, doff = self._locate(dst, nbytes)
        payload = bytes(sregion.data[soff:soff + nbytes])
        written = bytes(sregion.shadow[soff:soff + nbytes])
        dregion.data[doff:doff + nbytes] = payload
        dregion.shadow[doff:doff + nbytes] = written
        if doff <= dregion.clean:
            first = written.find(0)
            if first >= 0:
                dregion.clean = doff + first
            else:
                dregion.advance(doff, doff + nbytes)

    def fill(self, dst, byte, nbytes):
        if nbytes == 0:
            return
        region, off = self._locate(dst, nbytes)
        region.data[off:off + nbytes] = bytes([byte & 0xFF]) * nbytes
        region.shadow[off:off + nbytes] = b"\x01" * nbytes
        region.advance(off, off + nbytes)


# --- numeric helpers ---------------------------------------------------------

_F32 = struct.Struct("<f")


def _to_f32(x):
    try:
        return _F32.unpack(_F32.pack(x))[0]
    except OverflowError:
        return math.copysign(math.inf, x)


def _trunc_div(a, b):
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _fdiv(a, b):
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, math.copysign(1.0, a) * math.copysign(1.0, b))
    return a / b


def _divide(a, b, bits, signed, rem):
    """udiv/sdiv/urem/srem; signed division truncates toward zero."""
    if signed:
        a, b = _signed(a, bits), _signed(b, bits)
    if b == 0:
        raise DivisionByZero("integer remainder by zero" if rem else "integer division by zero")
    q = _trunc_div(a, b) if signed else a // b
    return a - b * q if rem else q


def _type_bits(ty):
    return 32 if ty.kind == "ptr" else ty.int_bits


def _address(global_addrs, op):
    """The address a GlobalRef or ConstGep operand names."""
    if op.__class__ is GlobalRef:
        return global_addrs[op.name]
    return (global_addrs[op.base.name] + op.offset) & _MASK32


# --- generated segment functions ---------------------------------------------
# A segment is a block's non-phi instructions up to its terminator, or up to
# a call into a function body.  Only the blocks the entry reaches (those in
# the function's dominator tree) are compiled; no edge leads to the others,
# so they never run.  Each segment becomes one Python function fn(regs),
# built as source and compiled with every other segment of the module in one
# compile() when the Interpreter is constructed.  fn returns the index of
# the next segment in the segment table, or 0 once the entry function
# returns.  Inside it:
# - a register is read into a Python local once, in operand order, and every
#   instruction is an inline expression over locals; its result is also
#   stored in `regs` only where code outside the function reads it;
# - integer arithmetic, compares, shifts and integer casts are Python
#   operators with no call, and so are a division, a remainder and an
#   `fdiv` whose divisor is a constant other than zero (see _divide_by);
#   `ashr` by a constant has its amount clamped while generating.  Short
#   of calls and returns, a helper is called only for DIV and FDIV when the
#   divisor is a register or a constant zero, so a zero raises or gives its
#   IEEE result when the instruction runs; F32, which rounds a `float`
#   result; ISFIN in `fptosi`; the memory image's LD, ST, ALLOC, HALLOC,
#   MCPY and MSET; and, when counting, TOUCH on an access that changes
#   lines;
# - each successor's edge is inlined: charge the target block's steps, check
#   the limit, count the entry, call the block_enter probes, read the phis'
#   incoming values, assign them, return the target's index.  A conditional
#   `br` tests its condition once and counts its outcome and calls the
#   cond_branch probes in each arm; a `switch` searches its sorted case
#   values, then tests the last few for equality;
# - a call into a function body charges a frame against the stack limit,
#   pushes the frame and inlines the callee's entry edge; `ret` pops the
#   frame through `_returner`;
# - a natural loop runs inside one function, its header's, as a `while
#   True:` loop (see "loop functions" below).
# Each probe kind holds at most one callable, and a probe call is emitted
# only for a kind that holds one, so a run without probes makes none.
#
# Loop functions.  A block H is a loop header when it has an edge p -> H
# from a block p that the entry reaches and H dominates, by the dominator
# tree the parser builds.  The loop is H and every block the entry reaches
# that reaches such a latch p without passing H.  It runs in H's function
# when no block of it calls a function body, when it holds no cycle once its
# edges into H are taken away (so no inner loop), and when copying each
# block once for every path to it from H takes at most _MAX_COPIES copies
# and `if` nesting levels.  A self-loop is the one-block case.  Other loops,
# and irreducible cycles, return to the dispatcher on every edge.  Inside
# H's `while True:`:
# - an edge to H emits the lines of any edge, assigns H's kept phi locals in
#   one tuple assignment, as phis are parallel, and does `continue`; those
#   locals are read from `regs` once, before the loop, where every edge into
#   H has just assigned them;
# - an edge to another block of the loop inlines it in place, the tail
#   duplicated on each path: the edge's lines, then its phis held by the
#   locals of their values, then its body and terminator.  Those blocks get
#   no function of their own, as they run only through H's;
# - an edge out of the loop stores into `regs` the H phis that a block
#   outside reads and the results deferred to the exits, then does what any
#   edge does and returns the target's index.
# The loop's blocks are one unit for _register_uses: a result lives only in
# a local when every read of it is in the loop, as the parser has checked
# that its definition dominates each read, and so precedes it within one
# iteration; it is stored on the exits instead of where it is defined when
# a block outside reads it and its block dominates every exiting block.
# Any other register is read from `regs` on first use on each path, so
# again on every iteration.
# `S.steps`, each `E[bid]`, each `P[site]` and the `C[JUMP]` slot live in
# locals, read once on entry and written back in one `try/finally`, so
# every return and every fault leaves `steps` and the TraceBuilder's lists
# as a run through the dispatcher does; `S.steps` is also written back
# before each probe call, as a probe may read `Interpreter.steps`.
#
# Given a TraceBuilder, the code counts the trace itself, with no call into
# the builder, and updates a model only where its state can change:
# - `E[block] += 1` on each edge;
# - in each arm of a conditional `br`, `P[site], c = TAKEN[P[site]]` and
#   `C[c] += 1` under `if P[site] != TAKEN_FIXED:` (NOT_TAKEN and
#   NOT_TAKEN_FIXED in the other arm): a site in the state that its outcome
#   leaves unchanged with a hit skips its update;
# - `C[LOADS + TOUCH(addr, False)] += 1` after a load and the same with
#   STORES after a store, but only when the access changes lines.  Each
#   function that counts an access holds two locals, set to -1 on entry:
#   `ll`, the line of its last cache access, and `ld`, that line when it is
#   known to be dirty.  A load of line `ll` or a store to line `ld` is a hit
#   that leaves the LRU order and every dirty bit as they are, so it emits
#   no TOUCH.  Otherwise the access calls TOUCH and sets `ll` to its line,
#   and `ld` to it after a store or to -1 after a load.  This is exact as no
#   other code touches the cache within one call of a generated function:
#   the memory routines bypass it, a call into a function body ends its
#   segment, and a loop function makes no call;
# - `C[VOLUMES[kind]] += nbytes` after a memory routine.
# These lines hold only static ids, slots, state codes and the line shift
# as literals.  The hits are not counted: TraceBuilder.build() derives them
# from the block entries.  bb_jump is known at generation time on an edge
# out of a block's first segment, where the last block entered is that
# block, so `C[JUMP] += 1` is emitted only where the target differs.  Only
# a call changes the last block entered: a `ret` in a first segment records
# its block in S.last_block, a later segment's `ret` leaves the id a deeper
# `ret` recorded, and the edges and call entries of a segment that resumes
# after a call compare against it.  The entry stub counts no jump.
# ProbeSets given beside the builder see the same events.
#
# Text from the IR reaches the source only as repr() of a register name:
# every constant, global address and string is bound by name in the
# namespace, and the only literals are integers the interpreter computes
# (masks, sizes, alignments, static ids, slots, state codes, line shifts,
# limits, segment indices).  A register is read only where the parser has
# checked that its definition dominates the read, so the read finds it
# assigned, and the code catches no exception: one raised by a probe passes
# through unchanged.  The namespace never holds the Interpreter or the
# segment table, so an Interpreter is freed by reference counting alone.
#
# Shapes.  The source depends on a module's shape alone, so it is generated
# once per shape in a process.  _shape walks the module once and returns a
# key and the constants' values.  The key holds the structure (functions,
# params, blocks and labels, opcodes, types, register names, predicates,
# callees, getelementptr strides, aligns, the globals' names, types and
# aligns), the limits, the line shift, which probe kinds are set and
# whether a TraceBuilder counts.  Of the constants it holds by value only
# what the generator branches on: whether a divisor is zero and, for
# `sdiv`, its sign; whether an `fdiv` divisor is ±0.0; whether a `shl` or
# `lshr` amount reaches the width; the labels of a switch's cases in value
# order; whether a folded getelementptr offset is 0.  The generator binds
# each other constant by its slot in the walk, through its transform (the
# signed view, the magnitude of an `sdiv`/`srem` divisor, the clamped
# `ashr` amount and its fill), and global and ConstGep addresses are
# values too, so equal keys give equal source.  _CODE keeps the compiled
# code, the entries and the binding recipe of the last 256 shapes used,
# and nothing of a module: a key is kept as bytes, as a tuple of the
# module's own strings would keep the memory around them from being
# returned.  An Interpreter whose key is there builds its
# namespace, binds its constants from its own walk and runs the cached code;
# only on a miss does it generate, so a miss costs one walk more than
# before.


class _Frame:
    __slots__ = ("regs", "stack_mark", "ret_reg", "resume")

    def __init__(self, regs, stack_mark, ret_reg=None, resume=0):
        self.regs, self.stack_mark = regs, stack_mark
        self.ret_reg, self.resume = ret_reg, resume   # caller register and segment


class _State:
    """What the generated code counts and returns, besides registers and memory."""

    __slots__ = ("steps", "result", "last_block")

    def __init__(self):
        self.steps, self.result, self.last_block = 0, None, None


def _returner(frames, state, release):
    """ret(value) -> the caller's next segment, or 0 when the entry returns."""
    def ret(result):
        fr = frames.pop()
        release(fr.stack_mark)
        if not frames:
            state.result = result
            return 0
        if fr.ret_reg is not None:
            frames[-1].regs[fr.ret_reg] = result
        return fr.resume
    return ret


def _aggregate_unpacker(nbytes):
    """unpack_from for a load of an array or struct: its bytes, as one
    little-endian unsigned integer."""
    return lambda data, off: (int.from_bytes(data[off:off + nbytes], "little"),)


_FORMATS = {"i1": "B", "i8": "B", "i16": "H", "i32": "I", "i64": "Q", "ptr": "I",
            "float": "f", "double": "d"}

_RUNTIME = {
    "F32": _to_f32, "FDIV": _fdiv, "DIV": _divide, "ISFIN": math.isfinite,
    "FRAME": _Frame, "SLE": StepLimitExceeded, "SOVF": StackOverflow, "HEXH": HeapExhausted,
    **{"U" + f: struct.Struct("<" + f).unpack_from for f in "BHIQfd"},
    **{"P" + f: struct.Struct("<" + f).pack_into for f in "BHIQfd"},
    **{f"O{n}": b"\x01" * n for n in (1, 2, 4, 8)},
}

_INT_BINOPS = {
    "add": "({a} + {b}) & {m}", "sub": "({a} - {b}) & {m}", "mul": "({a} * {b}) & {m}",
    "and": "{a} & {b} & {m}", "or": "({a} | {b}) & {m}", "xor": "({a} ^ {b}) & {m}",
}
# operations with a floating-point result; sitofp's {a} is the signed view
_FLOAT_OPS = {"fadd": "{a} + {b}", "fsub": "{a} - {b}", "fmul": "{a} * {b}",
              "fdiv": "FDIV({a}, {b})", "fneg": "-{a}", "uitofp": "float({a})",
              "sitofp": "float({a})"}
_ICMP = {"eq": "==", "ne": "!=", "gt": ">", "ge": ">=", "lt": "<", "le": "<="}
# With a NaN operand only the 'u' predicates and "true" hold; otherwise each
# compares as its base ("ord" always holds, "uno" never).
_FCMP = {
    "false": "False", "true": "True",
    "oeq": "{a} == {b}", "ogt": "{a} > {b}", "oge": "{a} >= {b}",
    "olt": "{a} < {b}", "ole": "{a} <= {b}", "one": "({a} < {b} or {a} > {b})",
    "ord": "({a} == {a} and {b} == {b})", "uno": "({a} != {a} or {b} != {b})",
    "ueq": "not ({a} < {b} or {a} > {b})", "ugt": "not {a} <= {b}", "uge": "not {a} < {b}",
    "ult": "not {a} >= {b}", "ule": "not {a} > {b}", "une": "{a} != {b}",
}

# _Generator.entered when the last block entered is in S.last_block
_RECORDED = "S.last_block"

# the locals of a loop function's counting slots; E[bid] is e{bid}, P[site] p{site}
_SLOT_LOCALS = {"S.steps": "steps", f"C[{JUMP}]": "jumps"}


def _invokes(ins):
    """Whether `ins` calls into a function body."""
    return ins.opcode == "call" and not is_recognized_callee(ins.callee)


def _split(block):
    """The block's segments: its non-phi instructions, cut after the
    terminator and after each call into a function body."""
    segments, current = [], []
    for ins in block.instructions[block.phi_count:]:
        current.append(ins)
        if ins.opcode in TERMINATORS or _invokes(ins):
            segments.append(current)
            current = []
    return segments


# the most block copies the source of one loop function may hold, and the
# deepest nesting of `if` arms in it
_MAX_COPIES = 32


def _switch_cases(ins):
    """The (value, label) cases of a `switch` that leave its default,
    sorted by value; the parser admits each value once."""
    return sorted(case for case in ins.cases if case[1] != ins.labels[0])


def _case_shape(n):
    """(the `if` arms around the deepest edge, the default edges) of the
    generated search over n switch cases; see _Generator._cases."""
    if n <= 4:
        return min(n, 1), 1
    (low, low_defaults), (high, high_defaults) = _case_shape(n // 2), _case_shape(n - n // 2)
    return max(low + 1, high), low_defaults + high_defaults


def _edges(ins):
    """The target labels of a terminator, one for each edge the generator
    emits, and how deep in `if` arms it emits the deepest."""
    if ins.opcode == "switch":
        cases = _switch_cases(ins)
        nesting, defaults = _case_shape(len(cases))
        return [label for _, label in cases] + ins.labels[:1] * defaults, nesting
    return ins.labels, len(ins.labels) - 1


@dataclass
class _Loop:
    """A natural loop that runs inside its header's function: its blocks
    and the blocks with an edge out of it."""

    header: str
    body: set
    exiting: list


def _natural_loops(func):
    """header label -> _Loop for each natural loop of `func` that runs inside
    its header's function: its blocks make no call into a function body,
    its edges other than those into the header form no cycle, so it holds
    no inner loop, and copying each block once for every path to it from
    the header takes at most _MAX_COPIES copies and nesting levels.  A latch
    is a block the entry reaches with an edge to a block that dominates it,
    its loop's header; the loop holds every block the entry reaches that
    reaches a latch without passing the header."""
    bodies = {}
    for latch in func.idom:
        for header in func.block_map[latch].succs:
            if func.dominates(header, latch):
                body, todo = bodies.setdefault(header, {header}), [latch]
                while todo:
                    label = todo.pop()
                    if label not in body and label in func.idom:
                        body.add(label)
                        todo += func.block_map[label].preds
    loops = {}
    for header, body in bodies.items():
        blocks = [func.block_map[label] for label in body]
        if any(_invokes(ins) for b in blocks for ins in b.instructions):
            continue
        edges = {b.label: _edges(b.instructions[-1]) for b in blocks}
        inner = {label: [t for t in targets if t in body and t != header]
                 for label, (targets, _) in edges.items()}
        waiting = dict.fromkeys(body, 0)
        for targets in inner.values():
            for t in targets:
                waiting[t] += 1
        # in topological order: paths from the header and arm depth
        copies, depth = {header: 1}, {header: 0}
        ready, done, fits = [header], 0, True
        while ready and fits:
            label = ready.pop()
            done += 1
            nest = depth[label] + edges[label][1]
            fits = nest <= _MAX_COPIES
            for t in inner[label]:
                copies[t] = copies.get(t, 0) + copies[label]
                depth[t] = max(depth.get(t, 0), nest)
                waiting[t] -= 1
                if not waiting[t]:
                    ready.append(t)
        if fits and done == len(body) and sum(copies.values()) <= _MAX_COPIES:
            exiting = [label for label, (targets, _) in edges.items()
                       if any(t not in body for t in targets)]
            loops[header] = _Loop(header, body, exiting)
    return loops


def _register_uses(func, segments, loops):
    """(registers kept in `regs`, header label -> the registers its loop
    stores only on its exits, register -> the labels of the blocks of its
    reads) for `segments`, the function's (block, instructions) pairs, and
    `loops`, its compiled loops.  A compiled loop is one unit, the other
    segments one each.  A result is kept unless every read of it is in its
    unit, which the parser has checked comes after it; a kept result of a
    loop block is stored on the loop's exits instead, when its block
    dominates every exiting block.  Phi results of a loop's other blocks
    are assigned where those blocks are inlined, so they count as defined
    in their unit; other phi results are assigned on edges, in their
    predecessors' segments, so they are kept whenever something reads
    them."""
    unit_of = {label: header for header, loop in loops.items() for label in loop.body}
    home, reads = {}, []
    for key, (block, insts) in enumerate(segments):
        label = block.label
        unit = unit_of.get(label, key)
        if unit != key and unit != label:     # inlined: its phis are assigned there
            for phi in block.instructions[:block.phi_count]:
                home[phi.result] = unit, label
        for ins in insts:
            if ins.result is not None and not _invokes(ins):
                home[ins.result] = unit, label
            reads += [(op.name, unit, label) for op in ins.operands if op.__class__ is LocalRef]
        for target in insts[-1].labels + [target for _, target in insts[-1].cases]:
            succ = func.block_map[target]
            for phi in succ.instructions[:succ.phi_count]:
                op = phi.incoming_map[label]
                if op.__class__ is LocalRef:
                    reads.append((op.name, unit, label))
    kept, readers = set(), {}
    for name, unit, label in reads:
        readers.setdefault(name, []).append(label)
        where = home.get(name)
        if where is None or where[0] != unit:
            kept.add(name)
    deferred = {}
    for name, (unit, label) in home.items():
        loop = loops.get(unit)
        if (loop is not None and name in kept
                and all(func.dominates(label, x) for x in loop.exiting)):
            kept.discard(name)
            deferred.setdefault(unit, []).append(name)
    return kept, deferred, readers


def _type_key(ty):
    """What generated code reads of a type: a scalar's kind, an aggregate's
    size and alignment."""
    if ty is None:
        return None
    return ty.kind if ty.kind in SCALARS else (ty.kind, ty.size(), ty.alignment())


def _shape(module, global_addrs, limits, probes, trace):
    """(key, values, slots) of one walk over `module`, for an Interpreter
    over `global_addrs` with `limits`, `probes` and `trace`; see "Shapes"
    above.  `key` is bytes.  `values` holds, in walk order, each constant the code binds: a
    Const's value, the address of a GlobalRef or ConstGep, a getelementptr's
    folded offset unless it is 0, and a switch's case values in value order.
    `slots` maps the id of each operand, getelementptr and switch that holds
    one to the index of its (first) value."""
    key = [limits.max_steps, limits.max_stack_bytes, limits.max_heap_bytes,
           None if trace is None else trace.line_shift,
           tuple(bool(getattr(probes, kind, None)) for kind in ProbeSet.__slots__)]
    add, values, slots = key.append, [], {}
    for g in module.globals:
        add((g.name, _type_key(g.type), g.align))
    for f in module.functions:
        add((f.name, tuple(name for name, _ in f.params), len(f.blocks)))
        for b in f.blocks:
            add((b.label, b.static_id, len(b.instructions)))
            for ins in b.instructions:
                op = ins.opcode
                if op == "phi":
                    ops = [value for value, _ in ins.incoming]
                    labels = tuple(label for _, label in ins.incoming)
                else:
                    ops, labels = ins.operands, tuple(ins.labels)
                add((op, ins.static_id, ins.result, _type_key(ins.type),
                     _type_key(ins.source_type), ins.pred, ins.callee, ins.align, len(ops),
                     labels))
                for o in ops:
                    cls = o.__class__
                    if cls is LocalRef:
                        add(o.name)
                        continue
                    # an object met at an earlier position shares its slot
                    slot = slots.setdefault(id(o), len(values))
                    if slot == len(values):
                        values.append(o.value if cls is Const else _address(global_addrs, o))
                    add((cls is Const, slot))
                right = ops[-1] if ops else None
                if right.__class__ is Const:
                    if op in ("udiv", "urem", "srem"):
                        add(right.value == 0)
                    elif op == "sdiv":
                        add((right.value == 0, _signed(right.value, ins.type.int_bits) < 0))
                    elif op == "fdiv":
                        add(right.value == 0.0)
                    elif op in ("shl", "lshr"):
                        add(right.value < ins.type.int_bits)
                if op == "icmp":
                    add(ops[0].type.kind)
                elif op == "getelementptr":
                    const, terms = ins.gep
                    add((const != 0, tuple((bits, stride) for _, bits, stride in terms)))
                    if const:
                        slots[id(ins)] = len(values)
                        values.append(const)
                elif op == "switch":
                    cases = _switch_cases(ins)
                    add((tuple(label for _, label in ins.cases),
                         tuple(label for _, label in cases)))
                    slots[id(ins)] = len(values)
                    values += [value for value, _ in cases]
    # one bytes object per key, holding no string of the module; version 0
    # writes neither references nor interning, so equal tuples give equal
    # bytes
    return marshal.dumps(tuple(key), 0), values, slots


def _compile(source):
    """The code object of a module's generated source.  It runs only on a
    miss of _CODE, which is keyed by _shape's key, not by the text: the
    key holds the structure and the few constants the generator branches
    on, every other constant is bound by its slot, and so modules of one
    shape share one compilation whatever their constants (see "Shapes"
    above).  A miss costs one walk over the module more than generating
    without the cache."""
    return compile(source, "<irtime segments>", "exec")


def _magnitude(value, bits):
    return abs(_signed(value, bits))


def _fill(value, bits):
    """The ones a negative value shifts into its top bits under `ashr`."""
    m = (1 << bits) - 1
    return m ^ (m >> min(value, bits - 1))


# the name a probe kind's callback is bound to in the namespace
_PROBE_NAMES = {kind: f"h{i}" for i, kind in enumerate(ProbeSet.__slots__)}


class _Code:
    """What a module's shape generates, sharing nothing with one module:
    the compiled code, the number of segment functions it defines (the halt
    at index 0 included), {function name: index of its entry}, the binding
    recipe, (name, slot, transform, argument) for each constant name, where
    transform None binds the value as it is, and `fixed`, the names of the
    values that every module of the shape shares."""

    __slots__ = ("code", "count", "entries", "recipe", "fixed")

    def __init__(self, code, count, entries, recipe, fixed):
        self.code, self.count, self.entries = code, count, entries
        self.recipe, self.fixed = recipe, fixed

    def load(self, namespace, values):
        """The segment table of the code run in `namespace`, with each
        constant bound from `values`, a module's from _shape."""
        namespace.update(self.fixed)
        for name, slot, transform, arg in self.recipe:
            value = values[slot]
            namespace[name] = value if transform is None else transform(value, arg)
        exec(self.code, namespace)
        return [None] + [namespace.pop(f"s{i}") for i in range(1, self.count)]


class _CodeCache:
    """Shape key -> _Code for the last `limit` shapes used.  It is shared by
    the threads of `simulate --workers`; two threads that miss on one key
    at once both generate it, with the same result."""

    def __init__(self, limit):
        self.limit, self.entries, self.lock = limit, collections.OrderedDict(), threading.Lock()

    def get(self, key):
        with self.lock:
            code = self.entries.get(key)
            if code is not None:
                self.entries.move_to_end(key)
            return code

    def add(self, key, code):
        with self.lock:
            self.entries[key] = code
            if len(self.entries) > self.limit:
                self.entries.popitem(last=False)
        return code


_CODE = _CodeCache(256)


class _Generator:
    """The source of every segment function of a module, as a _Code."""

    def __init__(self, module, slots, limits, probes, trace):
        self.module, self.slot_of, self.limits = module, slots, limits
        self.counting = trace is not None
        if trace is not None:
            self.line_shift = trace.line_shift
        # (slot, transform, argument) -> its name, and the recipe in order
        self.consts, self.recipe = {}, []
        self.fixed, self.fixed_names = {}, {}
        # probe kind -> the name its callback is bound to, or None
        self.probes = {kind: _PROBE_NAMES[kind] if getattr(probes, kind, None) else None
                       for kind in ProbeSet.__slots__}
        self.first = {}         # block static id -> index of its first segment

    def _bound(self, slot, transform=None, arg=None):
        """The name of the constant at `slot` of the values, through
        `transform`."""
        name = self.consts.get((slot, transform, arg))
        if name is None:
            name = self.consts[slot, transform, arg] = f"k{len(self.recipe)}"
            self.recipe.append((name, slot, transform, arg))
        return name

    def _const(self, op, transform=None, arg=None):
        """The name of the Const, GlobalRef or ConstGep operand `op`'s value."""
        return self._bound(self.slot_of[id(op)], transform, arg)

    def _fixed(self, value, key=None):
        """The name of `value`, which every module of this shape shares;
        equal keys, `value` itself by default, share a name."""
        key = value if key is None else key
        name = self.fixed_names.get(key)
        if name is None:
            name = self.fixed_names[key] = f"f{len(self.fixed)}"
            self.fixed[name] = value
        return name

    def _line(self, text):
        self.lines.append("    " * self.indent + text)

    def build(self):
        """The _Code of the module; segment index 0 is the halt that the
        entry function's `ret` returns."""
        plan, entries, count = [], {}, 1
        for f in self.module.functions:
            entries[f.name] = count
            loops = _natural_loops(f)
            inlined = {label for h, loop in loops.items() for label in loop.body if label != h}
            segments, emitted = [], []
            for b in f.blocks:
                if b.label not in f.idom:       # never runs
                    continue
                split = [(b, insts) for insts in _split(b)]
                segments += split
                if b.label not in inlined:
                    self.first[b.static_id] = count + 1 + len(emitted)
                    emitted += split
            plan.append((f, loops, segments, emitted))
            count += 1 + len(emitted)
        source = []
        for f, loops, segments, emitted in plan:
            self.loops = loops
            self.kept, self.deferred, self.readers = _register_uses(f, segments, loops)
            index = entries[f.name]
            self._begin(None)
            self._edge(f, None, f.entry.label)
            self._emit(index, source)
            for index, (block, insts) in enumerate(emitted, index + 1):
                bid = block.static_id
                self._begin(bid if self.first[bid] == index else _RECORDED)
                self._segment(f, block, insts, index + 1)
                self._emit(index, source)
        return _Code(_compile("\n".join(source)), count, entries, tuple(self.recipe),
                     self.fixed)

    def _begin(self, entered):
        """Start a function.  `entered` is the static id of the block last
        entered when it starts, _RECORDED when that is known only at run
        time, or None before any block is entered."""
        # register -> the local holding it; fused compare -> its test;
        # local an integer instruction defined -> its width, as its value
        # is already masked to it
        self.lines, self.held, self.fused, self.masked, self.n_locals = [], {}, {}, {}, 0
        self.entered, self.indent, self.accesses = entered, 1, False
        # in a loop function: the loop, its header's kept phis -> their
        # locals, what each exit stores, and counting slot -> its local
        self.loop, self.loop_phis, self.exit_stores, self.slots = None, {}, [], None

    def _emit(self, index, source):
        source.append(f"def s{index}(regs):")
        if self.accesses:
            source.append("    ll = ld = -1")
        source += self.lines

    def _new_local(self):
        self.n_locals += 1
        return f"v{self.n_locals}"

    # --- operands and results ---------------------------------------------

    def _operand(self, op):
        """A local or constant name holding the operand's value; a register
        is read into a local the first time the function reads it."""
        cls = op.__class__
        if cls is LocalRef:
            name = self.fused.get(op.name) or self.held.get(op.name)
            if name is None:
                name = self.held[op.name] = self._new_local()
                self._line(f"{name} = regs[{op.name!r}]")
            return name
        return self._const(op)

    def _define(self, ins, expr):
        """Assign `expr` to a new local for ins.result, and to the register
        too when code outside this function reads it."""
        name = self.held[ins.result] = self._new_local()
        if ins.result in self.kept:
            self._line(f"regs[{ins.result!r}] = {name} = {expr}")
        else:
            self._line(f"{name} = {expr}")
        return name

    def _signed(self, op, bits):
        """The operand read as a `bits`-wide two's complement integer."""
        if op.__class__ is Const:
            return self._const(op, _signed, bits)
        x = self._operand(op)
        return f"({x} - {1 << bits} if {x} >= {1 << (bits - 1)} else {x})"

    def _probe(self, kind, *args):
        name = self.probes[kind]
        if name is None:
            return
        if self.slots is not None:
            self._line(f"S.steps = {self._slot('S.steps')}")    # a probe may read it
        self._line(f"{name}({', '.join(map(str, args))})")

    def _slot(self, slot):
        """`slot`, or in a loop function the local that holds it."""
        if self.slots is None:
            return slot
        local = self.slots.get(slot)
        if local is None:
            local = self.slots[slot] = _SLOT_LOCALS.get(slot) or slot[0].lower() + slot[2:-1]
        return local

    def _observe(self, ins):
        if self.probes["instruction"]:
            self._probe("instruction", ins.static_id, self._fixed(ins.opcode))

    def _count(self, text):
        """A line of the trace's own counting, when there is a trace."""
        if self.counting:
            self._line(text)

    def _count_branch(self, site, taken):
        """Update the site's state and count the outcome, unless the
        outcome leaves the state unchanged with a hit."""
        if self.counting:
            state = self._slot(f"P[{site}]")
            with self._arm(f"{state} != {TAKEN_FIXED if taken else NOT_TAKEN_FIXED}"):
                self._line(f"{state}, c = {'TAKEN' if taken else 'NOT_TAKEN'}[{state}]")
                self._line("C[c] += 1")

    def _count_access(self, addr, is_store):
        """Touch the cache, unless the access is a load of the line of the
        function's last access, `ll`, or a store to it while it is known
        dirty, `ld`: a hit that changes neither the LRU order nor a dirty
        bit."""
        if self.counting:
            self.accesses = True
            line = f"{addr} >> {self.line_shift}"
            with self._arm(f"{line} != {'ld' if is_store else 'll'}"):
                self._line(f"C[{STORES if is_store else LOADS} + TOUCH({addr}, {is_store})] += 1")
                self._line(f"ll = ld = {line}" if is_store else f"ll, ld = {line}, -1")

    # --- segments and edges -----------------------------------------------

    def _segment(self, func, block, insts, resume):
        loop = self.loops.get(block.label)
        if loop is None:
            self._block(func, block, insts, resume)
            return
        self.loop, self.slots = loop, {}
        # every edge into the header has just assigned its kept phis
        for p in block.instructions[:block.phi_count]:
            if p.result in self.kept:
                local = self.loop_phis[p.result] = self.held[p.result] = self._new_local()
                self._line(f"{local} = regs[{p.result!r}]")
        self.exit_stores = [name for name in self.loop_phis
                            if any(label not in loop.body for label in self.readers[name])]
        self.exit_stores += self.deferred.get(block.label, [])
        start = len(self.lines)
        self._line("try:")
        self.indent += 1
        self._line("while True:")
        self.indent += 1
        self._block(func, block, insts, resume)
        self.indent -= 2
        slots = self.slots.items()
        pad = "    " * self.indent
        self.lines[start:start] = [f"{pad}{local} = {slot}" for slot, local in slots]
        self._line("finally:")
        self.lines += [f"{pad}    {slot} = {local}" for slot, local in slots]

    def _block(self, func, block, insts, resume):
        """A segment's instructions and the edges of its last one."""
        *body, last = insts
        cond = last.operands[0] if last.opcode == "br" and last.operands else None
        # a compare that only this br reads is tested in place
        fused = (cond.name if cond.__class__ is LocalRef and cond.name not in self.kept
                 and len(self.readers.get(cond.name, ())) == 1 else None)
        for ins in body:
            self._observe(ins)
            self._instruction(ins, fused is not None and ins.result == fused)
        self._observe(last)
        if last.opcode == "br":
            if cond is not None:
                with self._arm(self._operand(cond)):
                    self._count_branch(last.static_id, True)
                    self._probe("cond_branch", last.static_id, True)
                    self._edge(func, block.label, last.labels[0])
                self._count_branch(last.static_id, False)
                self._probe("cond_branch", last.static_id, False)
                self._edge(func, block.label, last.labels[1])
            else:
                self._edge(func, block.label, last.labels[0])
        elif last.opcode == "switch":
            value = self._operand(last.operands[0])
            first = self.slot_of[id(last)]
            cases = [(first + i, label) for i, (_, label) in enumerate(_switch_cases(last))]
            self._cases(value, cases, func, block.label, last.labels[0])
        elif last.opcode == "ret":
            value = self._operand(last.operands[0]) if last.operands else "None"
            if self.entered != _RECORDED:
                self._count(f"S.last_block = {self.entered}")
            self._line(f"return RET({value})")
        else:
            self._invoke(last, resume)

    def _edge(self, func, pred, label):
        """Enter block `label` from block `pred` (None on a call)."""
        block, loop = func.block_map[label], self.loop
        inside = loop is not None and label in loop.body
        if loop is not None and not inside:
            for name in self.exit_stores:
                self._line(f"regs[{name!r}] = {self.held[name]}")
        limit, bid = self.limits.max_steps, block.static_id
        steps = self._slot("S.steps")
        self._line(f"{steps} += {len(block.instructions)}")
        self._line(f"if {steps} > {limit}: raise SLE({limit})")
        if self.counting:
            self._line(f"{self._slot(f'E[{bid}]')} += 1")
            if self.entered == _RECORDED:
                self._line(f"if {_RECORDED} != {bid}: C[{JUMP}] += 1")
            elif self.entered not in (None, bid):
                self._line(f"{self._slot(f'C[{JUMP}]')} += 1")
        self._probe("block_enter", bid)
        phis = block.instructions[:block.phi_count]
        values = [self._operand(p.incoming_map[pred]) for p in phis]
        for p in phis:
            self._observe(p)
        kept = [(p.result, value) for p, value in zip(phis, values) if p.result in self.kept]
        if inside and label == loop.header:
            if kept:
                self._line(f"{', '.join(self.loop_phis[name] for name, _ in kept)}"
                           f" = {', '.join(value for _, value in kept)}")
            self._line("continue")
            return
        for name, value in kept:
            self._line(f"regs[{name!r}] = {value}")
        if inside:      # the block runs here, its phis held by the locals of their values
            self.held.update((p.result, value) for p, value in zip(phis, values))
            self.entered = bid
            self._block(func, block, block.instructions[block.phi_count:], None)
        else:
            self._line(f"return {self.first[bid]}")

    @contextlib.contextmanager
    def _arm(self, test):
        """What is written inside runs under `if test:`; the registers it
        reads and the blocks it enters are forgotten after it."""
        held, entered = dict(self.held), self.entered
        self._line(f"if {test}:")
        self.indent += 1
        yield
        self.indent -= 1
        self.held, self.entered = held, entered

    def _cases(self, value, cases, func, pred, default):
        """A binary search over `cases`, (slot, label) pairs in value order,
        down to a few equality tests and the default edge."""
        if len(cases) > 4:
            half = len(cases) // 2
            with self._arm(f"{value} < {self._bound(cases[half][0])}"):
                self._cases(value, cases[:half], func, pred, default)
            self._cases(value, cases[half:], func, pred, default)
            return
        for cval, label in cases:
            with self._arm(f"{value} == {self._bound(cval)}"):
                self._edge(func, pred, label)
        self._edge(func, pred, default)

    def _invoke(self, ins, resume):
        callee = self.module.function(ins.callee)
        args = [self._operand(op) for op in ins.operands]
        regs = ", ".join(f"{name!r}: {a}" for (name, _), a in zip(callee.params, args))
        limit = self.limits.max_stack_bytes
        # the alloca'd stack and every frame, the one pushed here included
        self._line(f"if STK.top + {FRAME_BYTES} * len(FR) > {limit - FRAME_BYTES}: "
                   f"raise SOVF({limit})")
        self._line(f"FR.append(FRAME({{{regs}}}, STK.top, {ins.result!r}, {resume}))")
        self._edge(callee, None, callee.entry.label)

    # --- instructions -----------------------------------------------------

    def _instruction(self, ins, fuse):
        op = ins.opcode
        if op in ("getelementptr", "alloca", "load", "store", "call"):
            getattr(self, "_" + op)(ins)
        elif op in ("icmp", "fcmp"):
            test = self._compare(ins)
            if fuse:
                self.fused[ins.result] = test
            else:
                self._define(ins, f"1 if {test} else 0")
        else:
            name = self._define(ins, self._expression(ins))
            if op != "zext" and ins.type.is_int():
                self.masked[name] = ins.type.int_bits

    def _expression(self, ins):
        op, ty = ins.opcode, ins.type
        x = [self._operand(o) for o in ins.operands]
        right = ins.operands[-1]
        constant = right.__class__ is Const
        if op in _FLOAT_OPS:
            a = self._signed(ins.operands[0], ins.source_type.int_bits) if op == "sitofp" else x[0]
            if op == "fdiv" and constant and right.value != 0.0:
                expr = f"{a} / {x[1]}"
            else:
                expr = _FLOAT_OPS[op].format(a=a, b=x[-1])
            return f"F32({expr})" if ty.kind == "float" else expr
        if op == "zext":
            return x[0]
        bits = ty.int_bits
        m = (1 << bits) - 1
        if op == "sext":
            return f"{self._signed(ins.operands[0], ins.source_type.int_bits)} & {m}"
        if op == "fptosi":
            return f"(int({x[0]}) if ISFIN({x[0]}) else 0) & {m}"
        a, b = x
        if op in ("udiv", "sdiv", "urem", "srem"):
            if constant and right.value:
                return self._divide_by(op, a, right, bits)
            return f"DIV({a}, {b}, {bits}, {op[0] == 's'}, {op.endswith('rem')}) & {m}"
        if op in ("shl", "lshr"):
            shift = "<<" if op == "shl" else ">>"
            if constant:
                return f"({a} {shift} {b}) & {m}" if right.value < bits else "0"
            return f"({a} {shift} {b} if {b} < {bits} else 0) & {m}"
        if op == "ashr":
            top = bits - 1
            if constant:
                # a negative value shifts ones into its top `amount` bits
                c, fill = self._const(right, min, top), self._const(right, _fill, bits)
                return f"({a} >> {c} | {fill} if {a} >= {1 << top} else {a} >> {c})"
            return (f"({self._signed(ins.operands[0], bits)} >> ({b} if {b} < {top} else {top}))"
                    f" & {m}")
        return _INT_BINOPS[op].format(a=a, b=b, m=m)

    def _divide_by(self, op, a, k, bits):
        """udiv/sdiv/urem/srem of `a` by the non-zero Const `k`, as
        inline arithmetic.  A signed one tests the unsigned `a` against
        2**(bits-1) and takes a negative dividend's magnitude as 2**bits - a;
        the quotient truncates toward zero for the sign of `k`, and the
        remainder takes the dividend's sign.  The mask turns a negative
        result into its bit pattern; INT_MIN / -1 comes out as 2**(bits-1),
        INT_MIN's own, as DIV gives it."""
        if op[0] == "u":
            return f"{a} {'//' if op == 'udiv' else '%'} {self._const(k)}"
        m, d = (1 << bits) - 1, self._const(k, _magnitude, bits)
        negative, magnitude = f"{a} >= {1 << (bits - 1)}", f"({m + 1} - {a})"
        if op == "srem":
            return f"(-({magnitude} % {d}) if {negative} else {a} % {d}) & {m}"
        if _signed(k.value, bits) > 0:
            return f"(-({magnitude} // {d}) if {negative} else {a} // {d}) & {m}"
        return f"({magnitude} // {d} if {negative} else -({a} // {d})) & {m}"

    def _compare(self, ins):
        """A Python boolean expression for an icmp or fcmp."""
        left, right = ins.operands
        if ins.opcode == "fcmp":
            a, b = self._operand(left), self._operand(right)
            return _FCMP[ins.pred].format(a=a, b=b)
        if ins.pred[0] == "s":
            bits = _type_bits(left.type)
            a, b = self._signed(left, bits), self._signed(right, bits)
        else:
            a, b = self._operand(left), self._operand(right)
        return f"{a} {_ICMP[ins.pred[-2:]]} {b}"

    def _getelementptr(self, ins):
        """The offset the parser folded, plus each register index
        sign-extended from its width and scaled by its stride."""
        const, terms = ins.gep
        parts = [self._operand(ins.operands[0])]
        if const:
            parts.append(self._bound(self.slot_of[id(ins)]))
        for op, bits, stride in terms:
            parts.append(f"{self._signed(op, bits)} * {stride}")
        self._define(ins, f"({' + '.join(parts)}) & {_MASK32}")

    def _alloca(self, ins):
        count, ty = self._operand(ins.operands[0]), ins.source_type
        align = max(ins.align, ty.alignment())
        addr = self._define(ins, f"ALLOC({ty.size()} * {count}, {align})")
        self._line(f"if {addr} is None: raise SOVF({self.limits.max_stack_bytes})")

    def _load(self, ins):
        addr, ty, nbytes = self._operand(ins.operands[0]), ins.type, ins.type.size()
        fmt = _FORMATS.get(ty.kind)
        unpack = "U" + fmt if fmt else self._fixed(_aggregate_unpacker(nbytes), nbytes)
        self._define(ins, f"LD({addr}, {nbytes}, {unpack})" + (" & 1" if ty.kind == "i1" else ""))
        self._count_access(addr, False)
        self._probe("load", addr, nbytes)

    def _store(self, ins):
        value, addr = (self._operand(o) for o in ins.operands)
        ty, nbytes = ins.type, ins.type.size()
        if ty.kind == "float":
            value = f"F32({value})"
        elif ty.kind != "double" and self.masked.get(value) != _type_bits(ty):
            value = f"{value} & {(1 << _type_bits(ty)) - 1}"
        self._line(f"ST({addr}, {nbytes}, P{_FORMATS[ty.kind]}, {value}, O{nbytes})")
        self._count_access(addr, True)
        self._probe("store", addr, nbytes)

    def _call(self, ins):
        """A call to a memory routine, a heap function or a no-op intrinsic."""
        callee, kind = ins.callee, mem_intrinsic_kind(ins.callee)
        if kind is not None:
            dst, src_or_byte, n = (self._operand(o) for o in ins.operands[:3])
            self._line(f"{'MCPY' if kind == 'memcpy' else 'MSET'}({dst}, {src_or_byte}, {n})")
            self._count(f"C[{VOLUMES[kind]}] += {n}")
            self._probe("mem_intrinsic", self._fixed(kind), n)
            if ins.result is not None:
                self._define(ins, dst)
        elif callee in ("malloc", "calloc"):
            n = self._operand(ins.operands[0])
            if callee == "calloc":
                n = f"{n} * {self._operand(ins.operands[1])}"
            nbytes, addr = self._new_local(), self._new_local()
            self._line(f"{nbytes} = {n}")
            self._line(f"{addr} = HALLOC({nbytes}, 8)")
            self._line(f"if {addr} is None: raise HEXH({self.limits.max_heap_bytes})")
            if callee == "calloc":
                self._line(f"MSET({addr}, 0, max({nbytes}, 1))")
            self._count(f"C[{VOLUMES[callee]}] += {nbytes}")
            self._probe("mem_intrinsic", self._fixed(callee), nbytes)
            if ins.result is not None:
                self._define(ins, addr)


class Interpreter:
    """Drives one module.  Use execute() for the raw return value; the
    module-level run() wraps an interpreter that counts a TraceBuilder.

    Construction compiles every segment of the module into one generated
    Python function (see "generated segment functions" above), or takes
    them from a module of the same shape (see "Shapes"), specialised to
    what observes it: `probes`, a ProbeSet whose callbacks it calls, and
    `trace`, a TraceBuilder whose counts the generated code keeps inline.
    A loop that calls no function body and holds no inner loop runs inside
    its header's function, its values and counts held in locals, with the
    same counts, probe events and steps as edges that return to the
    dispatcher.  Steps are charged a whole block at a time, on entry, so
    `steps` is exact for a run that finishes and a run fails with
    StepLimitExceeded if and only if its total exceeds `limits.max_steps`.
    The parser has checked every label, global, callee, call signature, type
    and getelementptr shape, and that each register's definition dominates
    its every use, so decoding a parsed module cannot fail and no register
    is read before it is assigned.
    """

    def __init__(self, module, probes: ProbeSet | None = None, limits: RunLimits | None = None,
                 trace: TraceBuilder | None = None):
        self.module = module
        self.limits = limits or RunLimits()
        self.memory = MemoryImage(self.limits)
        self._state = _State()
        self._frames = []
        self._setup_globals()
        memory, frames, state = self.memory, self._frames, self._state
        key, values, slots = _shape(module, memory.global_addrs, self.limits, probes, trace)
        code = _CODE.get(key)
        if code is None:
            code = _CODE.add(key, _Generator(module, slots, self.limits, probes, trace).build())
        stack = memory.stack
        namespace = dict(_RUNTIME, S=state, FR=frames, STK=stack, LD=memory.load,
                         ST=memory.store, MCPY=memory.copy, MSET=memory.fill,
                         ALLOC=stack.allocate, HALLOC=memory.heap.allocate,
                         RET=_returner(frames, state, stack.release_to))
        if trace is not None:
            namespace.update(E=trace.entries, P=trace.states, C=trace.counts, TOUCH=trace.touch,
                             TAKEN=TAKEN, NOT_TAKEN=NOT_TAKEN)
        for kind, name in _PROBE_NAMES.items():
            if fn := getattr(probes, kind, None):
                namespace[name] = fn
        self._segments, self._entries = code.load(namespace, values), code.entries

    @property
    def steps(self):
        return self._state.steps

    @property
    def uninitialized_loads(self):
        return self.memory.uninitialized_loads

    # --- setup --------------------------------------------------------------

    def _setup_globals(self):
        mem = self.memory
        for g in self.module.globals:
            size = g.type.size()
            align = max(g.align, g.type.alignment())
            addr = mem.globals.allocate(size, align)
            if addr is None:
                raise InterpreterError(f"global storage exhausted at '@{g.name}'")
            mem.global_addrs[g.name] = addr
        # a declaration's value lies outside the module: its bytes stay
        # unwritten, so a load of them is counted until a store writes them
        for g in self.module.globals:
            if g.init is not None:
                addr = mem.global_addrs[g.name]
                mem.fill(addr, 0, max(g.type.size(), 1))
                self._write_init(addr, g.type, g.init)

    def _write_init(self, addr, ty, init):
        mem = self.memory
        if init == ("zero",):
            return
        if isinstance(init, bytes):
            mem.write(addr, init[: ty.size()])
            return
        if isinstance(init, list):
            if ty.kind == "array":
                stride = ty.elem.size()
                for i, item in enumerate(init):
                    self._write_init(addr + i * stride, ty.elem, item)
            else:
                for i, item in enumerate(init):
                    self._write_init(addr + ty.field_offset(i), ty.fields[i], item)
            return
        if isinstance(init, (GlobalRef, ConstGep)):
            init = _address(mem.global_addrs, init)
        # a scalar, written as a generated store writes it
        if ty.kind == "float":
            init = _to_f32(init)
        elif ty.kind != "double":
            init &= (1 << _type_bits(ty)) - 1
        nbytes = ty.size()
        mem.store(addr, nbytes, _RUNTIME["P" + _FORMATS[ty.kind]], init, b"\x01" * nbytes)

    # --- main loop ---------------------------------------------------------

    def execute(self, entry: str = "main", args=()):
        """Run `entry` to completion and return its return value.  An
        integer or pointer argument is taken as its bit pattern at the
        parameter's width, and a `float` one is rounded to 32 bits, as the
        generated code holds every value of those types."""
        func = self.module.function(entry)
        if args and len(args) != len(func.params):
            raise InterpreterError(
                f"entry '@{entry}' takes {len(func.params)} arguments, got {len(args)}"
            )
        regs = {}
        for i, (pname, pty) in enumerate(func.params):
            if not args:
                regs[pname] = 0.0 if pty.is_float() else 0
            elif pty.kind == "float":
                regs[pname] = _to_f32(args[i])
            elif pty.is_int() or pty.kind == "ptr":
                regs[pname] = args[i] & ((1 << _type_bits(pty)) - 1)
            else:
                regs[pname] = args[i]
        segments, frames = self._segments, self._frames
        frames[:] = [_Frame(regs, self.memory.stack.top)]
        self._state.result = None
        index = self._entries[func.name]
        while True:
            index = segments[index](regs)
            if not index:
                return self._state.result
            regs = frames[-1].regs


def run(module, entry: str = "main", probes: ProbeSet | None = None,
        limits: RunLimits | None = None,
        cache_config: CacheConfig | None = None) -> ExecutionTrace:
    """Simulate `entry` and return the accumulated ExecutionTrace.

    Every run starts with a cold cache and predictor of its own.  The
    generated code counts the trace inline; extra probes observe the same
    event stream the trace is counted from.
    """
    builder = TraceBuilder(module, CacheModel(cache_config or CacheConfig()))
    interp = Interpreter(module, probes, limits, trace=builder)
    interp.execute(entry)
    return builder.build(uninitialized_loads=interp.uninitialized_loads)
