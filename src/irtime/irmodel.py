"""In-memory model of the IR subset: operands, instructions, blocks, functions.

Static ids are dense integers assigned in source order over the whole module
(one counter for instructions, one for blocks), so two parses of the same
text produce identical ids.
"""

from dataclasses import dataclass, field

from .irtypes import IrType, PTR
from .errors import UnresolvedReferenceError

# Everything the parser and interpreter accept.  select, trunc, fptrunc,
# fptoui and friends are deliberately rejected so unsupported programs fail
# loudly instead of being mis-simulated.
SUPPORTED_OPCODES = frozenset({
    "add", "fadd", "sub", "fsub", "and", "or", "xor", "shl", "lshr", "ashr",
    "icmp", "fcmp", "zext", "sext", "fptosi", "uitofp", "sitofp", "fneg",
    "sdiv", "fdiv", "mul", "udiv", "urem", "fmul", "srem",
    "br", "switch", "getelementptr", "phi", "alloca", "load", "store",
    "call", "ret",
})

TERMINATORS = frozenset({"br", "switch", "ret"})

# Recognized here so the parser can tell "outside the subset" apart from
# "not an opcode at all".
KNOWN_LLVM_OPCODES = SUPPORTED_OPCODES | frozenset({
    "select", "trunc", "fptrunc", "fpext", "fptoui", "ptrtoint", "inttoptr",
    "bitcast", "addrspacecast", "unreachable", "invoke", "resume",
    "landingpad", "cleanupret", "catchret", "catchswitch", "callbr",
    "extractvalue", "insertvalue", "extractelement", "insertelement",
    "shufflevector", "atomicrmw", "cmpxchg", "fence", "va_arg", "freeze",
    "indirectbr",
})

# Intrinsics and libc entry points the interpreter models.
NOOP_INTRINSIC_PREFIXES = ("llvm.lifetime.", "llvm.dbg.", "llvm.assume", "llvm.donothing")
HEAP_FUNCTIONS = frozenset({"malloc", "calloc", "free"})


def mem_intrinsic_kind(callee: str) -> str | None:
    """'memcpy' or 'memset' when the callee is one of the modeled memory
    routines, else None."""
    if callee == "memcpy" or callee.startswith("llvm.memcpy."):
        return "memcpy"
    if callee == "memset" or callee.startswith("llvm.memset."):
        return "memset"
    return None


def is_noop_intrinsic(callee: str) -> bool:
    return callee.startswith(NOOP_INTRINSIC_PREFIXES)


def is_recognized_callee(callee: str) -> bool:
    return (
        mem_intrinsic_kind(callee) is not None
        or callee in HEAP_FUNCTIONS
        or is_noop_intrinsic(callee)
    )


# --- operands -----------------------------------------------------------

class Const:
    """A literal value: masked unsigned int for integer/pointer types,
    Python float for float/double."""

    __slots__ = ("type", "value")

    def __init__(self, type: IrType, value):
        self.type = type
        self.value = value

    def __repr__(self):
        return f"{self.type!r} {self.value}"

    def __eq__(self, other):
        return isinstance(other, Const) and (self.type, self.value) == (other.type, other.value)


class LocalRef:
    __slots__ = ("name", "type")

    def __init__(self, name: str, type: IrType):
        self.name = name
        self.type = type

    def __repr__(self):
        return f"{self.type!r} %{self.name}"

    def __eq__(self, other):
        return isinstance(other, LocalRef) and (self.name, self.type) == (other.name, other.type)


class GlobalRef:
    """Address of a global variable (pointer-typed)."""

    __slots__ = ("name", "type")

    def __init__(self, name: str):
        self.name = name
        self.type = PTR

    def __repr__(self):
        return f"ptr @{self.name}"

    def __eq__(self, other):
        return isinstance(other, GlobalRef) and self.name == other.name


class ConstGep:
    """A constant-folded getelementptr expression over a global."""

    __slots__ = ("base", "offset", "type")

    def __init__(self, base: GlobalRef, offset: int):
        self.base = base
        self.offset = offset
        self.type = PTR

    def __repr__(self):
        return f"ptr (@{self.base.name} + {self.offset})"

    def __eq__(self, other):
        return isinstance(other, ConstGep) and (self.base, self.offset) == (other.base, other.offset)


@dataclass
class IrInstruction:
    opcode: str
    static_id: int = -1
    result: str | None = None
    type: IrType | None = None        # result type; value type for load/store
    operands: list = field(default_factory=list)
    pred: str | None = None           # icmp/fcmp predicate
    labels: list = field(default_factory=list)    # br/switch target labels
    cases: list = field(default_factory=list)     # switch: [(int value, label)]
    incoming: list = field(default_factory=list)  # phi: [(operand, pred label)]
    incoming_map: dict = field(default_factory=dict, repr=False)
    callee: str | None = None
    source_type: IrType | None = None  # getelementptr pointee / alloca element
    gep: tuple = ()   # getelementptr: (constant offset, ((index operand, bits, stride), ...))
    align: int = 0
    line: int = 0

    def summary(self) -> str:
        head = f"%{self.result} = {self.opcode}" if self.result else self.opcode
        if self.pred:
            head += f" {self.pred}"
        if self.callee:
            head += f" @{self.callee}"
        if self.operands:
            head += " " + ", ".join(repr(o) for o in self.operands)
        if self.labels:
            head += " -> " + ", ".join(self.labels)
        return head


@dataclass
class IrBlock:
    label: str
    static_id: int = -1
    instructions: list = field(default_factory=list)
    preds: list = field(default_factory=list)   # predecessor labels
    succs: list = field(default_factory=list)   # successor labels
    phi_count: int = 0


@dataclass
class IrFunction:
    name: str
    return_type: IrType
    params: list = field(default_factory=list)  # [(name, IrType)]
    blocks: list = field(default_factory=list)
    block_map: dict = field(default_factory=dict, repr=False)
    # label -> immediate dominator's label, for each block the entry
    # reaches; the entry's is None
    idom: dict = field(default_factory=dict, repr=False)

    @property
    def entry(self) -> IrBlock:
        return self.blocks[0]

    def dominates(self, a: str, b: str) -> bool:
        """Whether every path from the entry to block `b` passes block `a`.
        As in LLVM, every block dominates one the entry does not reach, and
        such a block dominates no other."""
        idom = self.idom
        if b not in idom:
            return True
        while b is not None and b != a:
            b = idom[b]
        return b is not None


@dataclass
class GlobalVar:
    name: str
    type: IrType
    init: object = None      # int | float | bytes | list | GlobalRef | ConstGep | None
    is_const: bool = False
    align: int = 0


@dataclass
class IrModule:
    source_name: str = "<string>"
    globals: list = field(default_factory=list)
    functions: list = field(default_factory=list)

    def function(self, name: str) -> IrFunction:
        for f in self.functions:
            if f.name == name:
                return f
        raise UnresolvedReferenceError(name, "function")

    def has_function(self, name: str) -> bool:
        return any(f.name == name for f in self.functions)

    def global_var(self, name: str) -> GlobalVar:
        for g in self.globals:
            if g.name == name:
                return g
        raise UnresolvedReferenceError(name, "global")

    def instruction_count(self) -> int:
        return sum(len(b.instructions) for f in self.functions for b in f.blocks)

    def fingerprint(self) -> list:
        """Structural digest used by tests to assert parse stability."""
        out = []
        for f in self.functions:
            for b in f.blocks:
                for ins in b.instructions:
                    out.append((f.name, b.label, b.static_id, ins.static_id,
                                ins.opcode, ins.summary()))
        return out

