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
"""

import math
import operator
import struct
from dataclasses import dataclass

from .errors import (
    IrTimeError, InterpreterError, StepLimitExceeded, OutOfBoundsAccess,
    DivisionByZero, StackOverflow, HeapExhausted, InvalidConfigError,
    UnresolvedReferenceError,
)
from .irtypes import gep_offset
from .irmodel import (
    Const, LocalRef, GlobalRef, ConstGep, mem_intrinsic_kind, is_recognized_callee,
)
from .cache import CacheModel, CacheConfig
from .branch import BranchPredictorTable, PredictorState
from .trace import TraceBuilder, ExecutionTrace

GLOBAL_BASE = 0x1000_0000
STACK_BASE = 0x2000_0000
HEAP_BASE = 0x3000_0000
REGION_SPAN = 0x1000_0000

_MASK32 = 0xFFFF_FFFF


@dataclass(frozen=True)
class RunLimits:
    max_steps: int = 100_000_000
    max_stack_bytes: int = 16 * 1024 * 1024
    max_heap_bytes: int = 64 * 1024 * 1024

    def validate(self) -> None:
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
    mem_intrinsic(kind, nbytes), call(callee_name).  Consecutive block_enter
    events are the block transitions.  An instruction observer slows every
    instruction; without one, no per-instruction work is done.
    """

    __slots__ = ("block_enter", "instruction", "load", "store", "cond_branch",
                 "mem_intrinsic", "call")

    def __init__(self, block_enter=None, instruction=None, load=None, store=None,
                 cond_branch=None, mem_intrinsic=None, call=None):
        self.block_enter = block_enter
        self.instruction = instruction
        self.load = load
        self.store = store
        self.cond_branch = cond_branch
        self.mem_intrinsic = mem_intrinsic
        self.call = call


class _Region:
    __slots__ = ("name", "base", "cap", "data", "shadow", "top")

    def __init__(self, name, base, cap):
        self.name = name
        self.base = base
        self.cap = cap
        self.data = bytearray()
        self.shadow = bytearray()   # 1 where a byte has been written
        self.top = 0

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
            self.data[mark:self.top] = bytes(self.top - mark)
            self.shadow[mark:self.top] = bytes(self.top - mark)
            self.top = mark


class MemoryImage:
    """Three bump regions; reads return zeros for allocated-but-unwritten
    bytes and report that so the run can flag uninitialized loads."""

    def __init__(self, limits: RunLimits):
        self.globals = _Region("globals", GLOBAL_BASE, REGION_SPAN)
        self.stack = _Region("stack", STACK_BASE, limits.max_stack_bytes)
        self.heap = _Region("heap", HEAP_BASE, limits.max_heap_bytes)
        self.global_addrs = {}

    def _locate(self, addr, nbytes):
        for region in (self.globals, self.stack, self.heap):
            if region.base <= addr < region.base + REGION_SPAN:
                off = addr - region.base
                if off + nbytes > region.top:
                    raise OutOfBoundsAccess(addr, nbytes)
                return region, off
        raise OutOfBoundsAccess(addr, nbytes)

    def read(self, addr, nbytes):
        region, off = self._locate(addr, nbytes)
        end = off + nbytes
        uninit = 0 in region.shadow[off:end]
        return bytes(region.data[off:end]), uninit

    def write(self, addr, data):
        region, off = self._locate(addr, len(data))
        end = off + len(data)
        region.data[off:end] = data
        region.shadow[off:end] = b"\x01" * len(data)

    def copy(self, dst, src, nbytes):
        if nbytes == 0:
            return
        sregion, soff = self._locate(src, nbytes)
        dregion, doff = self._locate(dst, nbytes)
        payload = bytes(sregion.data[soff:soff + nbytes])
        written = bytes(sregion.shadow[soff:soff + nbytes])
        dregion.data[doff:doff + nbytes] = payload
        dregion.shadow[doff:doff + nbytes] = written

    def fill(self, dst, byte, nbytes):
        if nbytes == 0:
            return
        region, off = self._locate(dst, nbytes)
        region.data[off:off + nbytes] = bytes([byte & 0xFF]) * nbytes
        region.shadow[off:off + nbytes] = b"\x01" * nbytes


# --- numeric helpers ---------------------------------------------------------

_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")
_CMP = {"eq": operator.eq, "ne": operator.ne, "gt": operator.gt,
        "ge": operator.ge, "lt": operator.lt, "le": operator.le}


def _signed(v, bits):
    return v - (1 << bits) if v >= 1 << (bits - 1) else v


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


def _int_binop(op, bits):
    """fn(a, b) for an integer binop, its result wrapped to `bits`."""
    m = (1 << bits) - 1
    if op in ("udiv", "sdiv", "urem", "srem"):
        signed, rem = op[0] == "s", op.endswith("rem")
        return lambda a, b: _divide(a, b, bits, signed, rem) & m
    return {
        "add": lambda a, b: (a + b) & m,
        "sub": lambda a, b: (a - b) & m,
        "mul": lambda a, b: (a * b) & m,
        "and": lambda a, b: a & b & m,
        "or": lambda a, b: (a | b) & m,
        "xor": lambda a, b: (a ^ b) & m,
        "shl": lambda a, b: (a << b if b < bits else 0) & m,
        "lshr": lambda a, b: (a >> b if b < bits else 0) & m,
        "ashr": lambda a, b: (_signed(a, bits) >> min(b, bits - 1)) & m,
    }[op]


def _icmp(pred, bits):
    cmp = _CMP[pred[-2:]]
    if pred[0] != "s":
        return lambda a, b: 1 if cmp(a, b) else 0
    half, span = 1 << (bits - 1), 1 << bits
    return lambda a, b: 1 if cmp(a - span if a >= half else a,
                                 b - span if b >= half else b) else 0


def _fcmp(pred):
    """fn(a, b) -> 0 | 1.  With a NaN operand only 'u' predicates and "true"
    hold; otherwise each compares as its base ("ord" always, "uno" never)."""
    cmp = _CMP.get(pred[1:], lambda a, b: pred in ("true", "ord"))
    when_nan = 1 if pred[0] == "u" or pred == "true" else 0
    return lambda a, b: when_nan if math.isnan(a) or math.isnan(b) else (1 if cmp(a, b) else 0)


def _type_bits(ty):
    return 32 if ty.kind == "ptr" else ty.int_bits


def _encoder(ty):
    """fn(value) -> the little-endian bytes a store of type `ty` writes."""
    if ty.kind == "float":
        return lambda v: _F32.pack(_to_f32(v))
    if ty.kind == "double":
        return _F64.pack
    m, size = (1 << _type_bits(ty)) - 1, ty.size()
    return lambda v: (v & m).to_bytes(size, "little")


def _decoder(ty):
    """fn(bytes) -> the value a load of type `ty` yields."""
    if ty.kind in ("float", "double"):
        unpack = (_F32 if ty.kind == "float" else _F64).unpack
        return lambda data: unpack(data)[0]
    if ty.kind == "i1":
        return lambda data: data[0] & 1
    return lambda data: int.from_bytes(data, "little")


# --- decoded instructions ----------------------------------------------------
# Each instruction is decoded once into a closure fn(regs) over its operands,
# read as (is_register, register name | value).  A block is a chain of
# segments [body, transfer]: `body` is a tuple of closures and
# `transfer(regs)` (a terminator, or a call into a function body) returns the
# next segment, or None once the entry function returns.


def _getter(read):
    """fn(regs) -> the value of a decoded operand."""
    is_reg, x = read
    if not is_reg:
        return lambda regs: x

    def get(regs):
        try:
            return regs[x]
        except KeyError:
            raise UnresolvedReferenceError(x, "register") from None
    return get


def _pure(fn, reads, res):
    """Closure storing fn(operand values) into register `res`."""
    gets = [_getter(r) for r in reads]
    if len(gets) == 1:
        a, = gets

        def step(regs):
            regs[res] = fn(a(regs))
    elif len(gets) == 2:
        a, b = gets

        def step(regs):
            regs[res] = fn(a(regs), b(regs))
    else:
        def step(regs):
            regs[res] = fn(*[g(regs) for g in gets])
    return step


class _Frame:
    __slots__ = ("func", "regs", "stack_mark", "ret_reg", "resume")

    def __init__(self, func, regs, stack_mark, ret_reg=None, resume=None):
        self.func, self.regs, self.stack_mark = func, regs, stack_mark
        self.ret_reg, self.resume = ret_reg, resume   # caller register and segment


class Interpreter:
    """Drives one module.  Use execute() for the raw return value; the
    module-level run() wraps an interpreter with the standard trace probes.

    Steps are charged a whole block at a time, on entry, so `steps` is exact
    for a run that finishes and a run fails with StepLimitExceeded if and
    only if its total exceeds `limits.max_steps`.  An operand, label or
    callee that does not resolve fails when its instruction executes.
    """

    def __init__(self, module, probes=(), limits: RunLimits | None = None):
        if isinstance(probes, ProbeSet):
            probes = (probes,)
        self.module = module
        self.limits = limits or RunLimits()
        self.limits.validate()
        self.memory = MemoryImage(self.limits)
        self.steps = 0
        self.uninitialized_loads = 0
        self._frames = []
        self._result = None
        probes = [p for p in probes if p is not None]
        self._on_block_enter = [p.block_enter for p in probes if p.block_enter]
        self._on_instruction = [p.instruction for p in probes if p.instruction]
        self._on_load = [p.load for p in probes if p.load]
        self._on_store = [p.store for p in probes if p.store]
        self._on_cond_branch = [p.cond_branch for p in probes if p.cond_branch]
        self._on_mem_intrinsic = [p.mem_intrinsic for p in probes if p.mem_intrinsic]
        self._on_call = [p.call for p in probes if p.call]
        self._setup_globals()
        functions = module.functions
        self._segments = {b.static_id: [(), None] for f in functions for b in f.blocks}
        self._entries = {f.name: self._safely(self._edge, f, None, f.entry.label)
                         for f in reversed(functions)}   # the first definition wins
        for f in functions:
            for block in f.blocks:
                self._decode_block(f, block)

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
        for g in self.module.globals:
            addr = mem.global_addrs[g.name]
            self._write_init(addr, g.type, g.init)
            region, off = mem._locate(addr, max(g.type.size(), 1))
            size = max(g.type.size(), 1)
            region.shadow[off:off + size] = b"\x01" * size

    def _write_init(self, addr, ty, init):
        mem = self.memory
        if init is None or init == ("zero",):
            return
        if isinstance(init, bytes):
            payload = init[: ty.size()]
            region, off = mem._locate(addr, max(len(payload), 1))
            region.data[off:off + len(payload)] = payload
            return
        if isinstance(init, (GlobalRef, ConstGep)):
            mem.write(addr, _encoder(ty)(self._read(init)[1]))
            return
        if isinstance(init, list):
            if ty.kind == "array":
                stride = ty.elem.size()
                for i, item in enumerate(init):
                    self._write_init(addr + i * stride, ty.elem, item)
            elif ty.kind == "struct":
                for i, item in enumerate(init):
                    self._write_init(addr + ty.field_offset(i), ty.fields[i], item)
            else:
                raise InterpreterError(f"aggregate initializer for scalar type {ty!r}")
            return
        mem.write(addr, _encoder(ty)(init))

    # --- decoding -------------------------------------------------------------

    @staticmethod
    def _safely(decode, *args):
        """decode(*args), or a closure raising its error when executed."""
        try:
            return decode(*args)
        except (IrTimeError, LookupError) as exc:
            error = exc

        def fail(regs):
            raise error
        return fail

    def _decode_block(self, func, block):
        seg, body = self._segments[block.static_id], []
        for ins in block.instructions[block.phi_count:]:
            invoke = ins.opcode == "call" and not is_recognized_callee(ins.callee or "")
            resume = [(), None] if invoke else None
            op = self._safely(self._decode, func, block, ins, resume)
            if self._on_instruction:
                op = self._observed(self._on_instruction, ins.static_id, ins.opcode, op)
            if invoke or ins.opcode in ("br", "switch", "ret"):
                seg[:] = tuple(body), op
                seg, body = resume, []
            else:
                body.append(op)

    @staticmethod
    def _observed(hooks, sid, opcode, op):
        def observed(regs):
            for h in hooks:
                h(sid, opcode)
            return op(regs)
        return observed

    def _read(self, op):
        """Decode an operand into (is_register, register name | value)."""
        cls = op.__class__
        if cls is LocalRef:
            return True, op.name
        if cls is Const:
            return False, op.value
        if cls is GlobalRef or cls is ConstGep:
            name = op.name if cls is GlobalRef else op.base.name
            if name not in self.memory.global_addrs:
                raise UnresolvedReferenceError(name, "global")
            addr = self.memory.global_addrs[name]
            return False, addr if cls is GlobalRef else (addr + op.offset) & _MASK32
        raise InterpreterError(f"cannot evaluate operand {op!r}")

    def _edge(self, func, pred_label, label):
        """Closure entering block `label` from `pred_label` (None on a call):
        charges the block's steps, fires block_enter, assigns the phis in
        parallel and returns the block's first segment."""
        block = func.block_map.get(label)
        if block is None:
            raise UnresolvedReferenceError(label, "label")
        interp, limit, hooks = self, self.limits.max_steps, self._on_block_enter
        seg, sid, size = self._segments[block.static_id], block.static_id, len(block.instructions)
        phis = block.instructions[:block.phi_count]
        for p in phis:
            if pred_label not in p.incoming_map:
                raise InterpreterError(f"phi %{p.result} has no incoming value for "
                                       f"predecessor '%{pred_label}'")
        dsts = [p.result for p in phis]
        gets = [_getter(self._read(p.incoming_map[pred_label])) for p in phis]
        inst_hooks = self._on_instruction
        phi_ids = [p.static_id for p in phis] if inst_hooks else ()

        def enter(regs):
            interp.steps += size
            if interp.steps > limit:
                raise StepLimitExceeded(limit)
            for h in hooks:
                h(sid)
            if gets:
                values = [g(regs) for g in gets]
                for pid in phi_ids:
                    for h in inst_hooks:
                        h(pid, "phi")
                regs.update(zip(dsts, values))
            return seg
        return enter

    def _decode(self, func, block, ins, resume):
        op, res = ins.opcode, ins.result
        if resume is not None:
            return self._decode_invoke(ins, resume)
        if op in ("br", "switch"):
            return self._decode_branch(func, block, ins)
        reads = [self._read(o) for o in ins.operands]
        if op in ("add", "sub", "mul", "udiv", "sdiv", "urem", "srem",
                  "and", "or", "xor", "shl", "lshr", "ashr"):
            return _pure(_int_binop(op, ins.type.int_bits), reads, res)
        if op in ("fadd", "fsub", "fmul", "fdiv"):
            fn = {"fadd": operator.add, "fsub": operator.sub,
                  "fmul": operator.mul, "fdiv": _fdiv}[op]
            return _pure((lambda a, b: _to_f32(fn(a, b))) if ins.type.kind == "float" else fn,
                         reads, res)
        if op == "icmp":
            return _pure(_icmp(ins.pred, _type_bits(ins.operands[0].type)), reads, res)
        if op == "fcmp":
            return _pure(_fcmp(ins.pred), reads, res)
        if op == "fneg":
            return _pure(operator.neg, reads, res)
        if op == "zext":
            return _pure(lambda v: v, reads, res)
        if op == "sext":
            src_bits, m = ins.source_type.int_bits, (1 << ins.type.int_bits) - 1
            return _pure(lambda v: _signed(v, src_bits) & m, reads, res)
        if op == "fptosi":
            m = (1 << ins.type.int_bits) - 1
            return _pure(lambda f: (int(f) if math.isfinite(f) else 0) & m, reads, res)
        if op in ("uitofp", "sitofp"):
            bits = ins.source_type.int_bits if op == "sitofp" else 0
            to_float = (lambda v: float(_signed(v, bits))) if bits else float
            if ins.type.kind == "float":
                return _pure(lambda v: _to_f32(to_float(v)), reads, res)
            return _pure(to_float, reads, res)
        if op == "getelementptr":
            src, bits = ins.source_type, [o.type.int_bits for o in ins.operands[1:]]
            return _pure(lambda base, *indices: (base + gep_offset(src, [
                _signed(i, b) for i, b in zip(indices, bits)])) & _MASK32, reads, res)
        if op in ("alloca", "load", "store", "call", "ret"):
            return getattr(self, "_decode_" + op)(ins, reads)
        raise InterpreterError("phi outside block entry; module was not linked")

    def _decode_alloca(self, ins, reads):
        count, res = _getter(reads[0]), ins.result
        size, align = ins.source_type.size(), max(ins.align, ins.source_type.alignment())
        allocate, limit = self.memory.stack.allocate, self.limits.max_stack_bytes

        def alloca(regs):
            addr = allocate(size * count(regs), align)
            if addr is None:
                raise StackOverflow(limit)
            regs[res] = addr
        return alloca

    def _decode_load(self, ins, reads):
        interp, address, res = self, _getter(reads[0]), ins.result
        nbytes, decode = ins.type.size(), _decoder(ins.type)
        read, hooks = self.memory.read, self._on_load

        def load(regs):
            addr = address(regs)
            data, uninit = read(addr, nbytes)
            if uninit:
                interp.uninitialized_loads += 1
            for h in hooks:
                h(addr, nbytes)
            regs[res] = decode(data)
        return load

    def _decode_store(self, ins, reads):
        value, address = _getter(reads[0]), _getter(reads[1])
        nbytes, encode = ins.type.size(), _encoder(ins.type)
        write, hooks = self.memory.write, self._on_store

        def store(regs):
            v, addr = value(regs), address(regs)
            write(addr, encode(v))
            for h in hooks:
                h(addr, nbytes)
        return store

    def _decode_call(self, ins, reads):
        """A call to a memory routine, a heap function or a no-op intrinsic."""
        callee, res, call_hooks = ins.callee, ins.result, self._on_call
        gets, mem_hooks, memory = [_getter(r) for r in reads], self._on_mem_intrinsic, self.memory
        kind, heap_limit = mem_intrinsic_kind(callee), self.limits.max_heap_bytes

        def call(regs):
            for h in call_hooks:
                h(callee)
            if kind is not None:
                dst, src_or_byte, n = gets[0](regs), gets[1](regs), gets[2](regs)
                (memory.copy if kind == "memcpy" else memory.fill)(dst, src_or_byte, n)
                for h in mem_hooks:
                    h(kind, n)
                if res is not None:
                    regs[res] = dst
            elif callee in ("malloc", "calloc"):
                nbytes = gets[0](regs) * (gets[1](regs) if callee == "calloc" else 1)
                addr = memory.heap.allocate(nbytes, 8)
                if addr is None:
                    raise HeapExhausted(heap_limit)
                if callee == "calloc":
                    region, off = memory._locate(addr, max(nbytes, 1))
                    region.shadow[off:off + max(nbytes, 1)] = b"\x01" * max(nbytes, 1)
                for h in mem_hooks:
                    h(callee, nbytes)
                if res is not None:
                    regs[res] = addr
        return call

    def _decode_branch(self, func, block, ins):
        def edge(label):
            return self._safely(self._edge, func, block.label, label)

        if ins.opcode == "switch":
            value, default, table = _getter(self._read(ins.operands[0])), edge(ins.labels[0]), {}
            for cval, label in ins.cases:
                table.setdefault(cval, edge(label))
            return lambda regs: table.get(value(regs), default)(regs)
        if not ins.operands:
            return edge(ins.labels[0])
        cond, sid, hooks = _getter(self._read(ins.operands[0])), ins.static_id, self._on_cond_branch
        on_true, on_false = edge(ins.labels[0]), edge(ins.labels[1])

        def br(regs):
            taken = cond(regs) != 0
            for h in hooks:
                h(sid, taken)
            return (on_true if taken else on_false)(regs)
        return br

    def _decode_ret(self, ins, reads):
        value = _getter(reads[0]) if reads else lambda regs: None
        interp, frames, release = self, self._frames, self.memory.stack.release_to

        def ret(regs):
            result = value(regs)
            fr = frames.pop()
            release(fr.stack_mark)
            if not frames:
                interp._result = result
                return None
            if fr.ret_reg is not None:
                if result is None:
                    raise InterpreterError(
                        f"'@{fr.func}' returned void but the caller expects a value")
                frames[-1].regs[fr.ret_reg] = result
            return fr.resume
        return ret

    def _decode_invoke(self, ins, resume):
        """A call into a function body; `resume` is the caller's next segment."""
        callee, res, hooks = ins.callee, ins.result, self._on_call
        func = self.module.function(callee)
        if len(ins.operands) != len(func.params):
            raise InterpreterError(f"call to '@{callee}' passes {len(ins.operands)} "
                                   f"arguments, function takes {len(func.params)}")
        params = [name for name, _ in func.params]
        gets = [_getter(self._read(o)) for o in ins.operands]
        frames, stack, enter = self._frames, self.memory.stack, self._entries[callee]

        def invoke(regs):
            for h in hooks:
                h(callee)
            callee_regs = {}
            for name, g in zip(params, gets):
                callee_regs[name] = g(regs)
            frames.append(_Frame(callee, callee_regs, stack.top, res, resume))
            return enter(callee_regs)
        return invoke

    # --- main loop ---------------------------------------------------------

    def execute(self, entry: str = "main", args=()):
        """Run `entry` to completion and return its return value."""
        func = self.module.function(entry)
        if args and len(args) != len(func.params):
            raise InterpreterError(
                f"entry '@{entry}' takes {len(func.params)} arguments, got {len(args)}"
            )
        regs = {}
        for i, (pname, pty) in enumerate(func.params):
            regs[pname] = args[i] if args else (0.0 if pty.is_float() else 0)
        frames = self._frames
        frames[:] = [_Frame(func.name, regs, self.memory.stack.top)]
        self._result = None
        body, transfer = self._entries[func.name](regs)
        while True:
            for op in body:
                op(regs)
            segment = transfer(regs)
            if segment is None:
                return self._result
            body, transfer = segment
            regs = frames[-1].regs


def run(module, entry: str = "main", probes: ProbeSet | None = None,
        limits: RunLimits | None = None,
        cache_config: CacheConfig | None = None,
        predictor_initial_state: PredictorState | None = None) -> ExecutionTrace:
    """Simulate `entry` and return the accumulated ExecutionTrace.

    Every run starts with a cold cache and predictor of its own.  Extra
    probes observe the same event stream the trace is built from.
    """
    cache = CacheModel(cache_config or CacheConfig())
    predictor = BranchPredictorTable(predictor_initial_state or PredictorState.WNT)
    builder = TraceBuilder(module, cache, predictor)
    probe_list = [ProbeSet(
        block_enter=builder.on_block_enter,
        load=builder.on_load,
        store=builder.on_store,
        cond_branch=builder.on_cond_branch,
        mem_intrinsic=builder.on_mem_intrinsic,
    )]
    if probes is not None:
        probe_list.append(probes)
    interp = Interpreter(module, probe_list, limits)
    interp.execute(entry)
    return builder.build(uninitialized_loads=interp.uninitialized_loads)
