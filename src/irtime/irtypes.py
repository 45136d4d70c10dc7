"""Types of the interpreted IR subset and their in-memory layout.

The target is a 32-bit machine: pointers are 4 bytes, aggregates use natural
alignment (every field is padded to its own alignment, the aggregate is
padded to the alignment of its widest member).
"""

from dataclasses import dataclass, field

from .errors import ParseError

POINTER_BYTES = 4

_INT_BITS = {"i1": 1, "i8": 8, "i16": 16, "i32": 32, "i64": 64}
_SCALAR_SIZE = {
    "i1": 1, "i8": 1, "i16": 2, "i32": 4, "i64": 8,
    "float": 4, "double": 8, "ptr": POINTER_BYTES,
}


@dataclass(frozen=True)
class IrType:
    """One type of the subset.

    kind is 'void', 'i1'..'i64', 'float', 'double', 'ptr', 'array', or
    'struct'.  Pointers are opaque: the pointee never matters for layout,
    and load/store/getelementptr all carry an explicit value type.
    """

    kind: str
    elem: "IrType | None" = None          # array element
    count: int = 0                        # array length
    fields: tuple = field(default=())     # struct members
    name: str = ""                        # original name for named structs
    depth: int = field(default=0, compare=False)   # array/struct nesting levels
    # Layout, computed once from the members' own when the type is built,
    # so it costs time linear in the type's text however deeply it nests.
    # None for void, which the parser keeps out of every aggregate.
    _size: int | None = field(default=None, init=False, compare=False, repr=False)
    _align: int | None = field(default=None, init=False, compare=False, repr=False)
    _offsets: tuple = field(default=(), init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind in _SCALAR_SIZE:
            size = align = _SCALAR_SIZE[self.kind]
        elif self.kind == "array":
            size, align = self.count * self.elem.size(), self.elem.alignment()
        elif self.kind == "struct":
            align = max((f.alignment() for f in self.fields), default=1)
            offsets, off = [], 0
            for f in self.fields:
                off = _align_up(off, f.alignment())
                offsets.append(off)
                off += f.size()
            size = _align_up(off, align)
            object.__setattr__(self, "_offsets", tuple(offsets))
        else:
            return
        object.__setattr__(self, "_size", size)
        object.__setattr__(self, "_align", align)

    def __repr__(self):
        if self.kind == "array":
            return f"[{self.count} x {self.elem!r}]"
        if self.kind == "struct":
            if self.name:
                return self.name
            return "{" + ", ".join(repr(f) for f in self.fields) + "}"
        return self.kind

    @property
    def int_bits(self) -> int:
        return _INT_BITS[self.kind]

    def is_int(self) -> bool:
        return self.kind in _INT_BITS

    def is_float(self) -> bool:
        return self.kind in ("float", "double")

    def size(self) -> int:
        """Allocated size in bytes, padding included."""
        if self._size is None:
            raise ParseError(f"type {self.kind} has no size")
        return self._size

    def alignment(self) -> int:
        return self._align

    def field_offset(self, index: int) -> int:
        """Byte offset of struct member `index`, which the parser has checked."""
        return self._offsets[index]


def signed(value: int, bits: int) -> int:
    """`value`, an unsigned `bits`-wide integer, read as two's complement."""
    return value - (1 << bits) if value >= 1 << (bits - 1) else value


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


VOID = IrType("void")
I1 = IrType("i1")
I8 = IrType("i8")
I16 = IrType("i16")
I32 = IrType("i32")
I64 = IrType("i64")
FLOAT = IrType("float")
DOUBLE = IrType("double")
PTR = IrType("ptr")

SCALARS = {
    "void": VOID, "i1": I1, "i8": I8, "i16": I16, "i32": I32, "i64": I64,
    "float": FLOAT, "double": DOUBLE, "ptr": PTR,
}


def array_of(elem: IrType, count: int) -> IrType:
    return IrType("array", elem=elem, count=count, depth=elem.depth + 1)


def struct_of(fields, name: str = "") -> IrType:
    fields = tuple(fields)
    depth = 1 + max((f.depth for f in fields), default=0)
    return IrType("struct", fields=fields, name=name, depth=depth)
