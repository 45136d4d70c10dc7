"""Textual parser for the supported LLVM IR subset.

One findall of one regular expression splits the file into tokens, each a
plain (kind, value, line, nth) tuple whose kind comes from its first
character and whose nth counts the tokens before it on its line; the same
pass groups them into statements (newlines inside (...) or [...] do not end a
statement), each closed by an end token, and the parser consumes each
statement with a per-opcode grammar.  Columns are computed only for an
error: the lexer and the grammar raise with the token at fault, and
parse_module scans that one line again to turn it into a ParseError at
line:col.
Decorations (flags, attributes, `#N` groups, metadata) are skipped, each
only where LLVM allows it; opcodes outside the subset raise
UnsupportedOpcodeError so a program we cannot simulate faithfully is
rejected instead of guessed at.
"""

import itertools
import re
import string

from .errors import ParseError, UnsupportedOpcodeError, UnresolvedReferenceError
from .irtypes import IrType, SCALARS, PTR, VOID, I1, I32, array_of, signed, struct_of
from .trace import read_text
from .irmodel import (
    IrModule, IrFunction, IrBlock, IrInstruction, GlobalVar,
    Const, LocalRef, GlobalRef, ConstGep,
    SUPPORTED_OPCODES, KNOWN_LLVM_OPCODES, TERMINATORS,
    is_recognized_callee, mem_intrinsic_kind,
)

ICMP_PREDS = frozenset({"eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge", "slt", "sle"})
FCMP_PREDS = frozenset({
    "false", "oeq", "ogt", "oge", "olt", "ole", "one", "ord",
    "ueq", "ugt", "uge", "ult", "ule", "une", "uno", "true",
})

# the fast-math flags, the only flag words LLVM reads in any number
_FAST_MATH_FLAGS = frozenset({"fast", "nnan", "ninf", "nsz", "arcp", "contract", "afn", "reassoc"})

# opcode -> the flag words that may follow it.  LLVM 14 knows all but
# `disjoint`, `nneg` and getelementptr's `nuw`, which newer clang writes.
_OPCODE_FLAGS = {
    **dict.fromkeys(("add", "sub", "mul", "shl"), frozenset({"nuw", "nsw"})),
    **dict.fromkeys(("udiv", "sdiv", "lshr", "ashr"), frozenset({"exact"})),
    **dict.fromkeys(("fadd", "fsub", "fmul", "fdiv", "fneg", "fcmp", "phi", "call"),
                    _FAST_MATH_FLAGS),
    "zext": frozenset({"nneg"}),
    "or": frozenset({"disjoint"}),
    "load": frozenset({"volatile"}),
    "store": frozenset({"volatile"}),
    "alloca": frozenset({"inalloca"}),
    "getelementptr": frozenset({"inbounds", "nuw"}),
}

# the words before a global's or a defined function's type: linkage,
# preemption and visibility, then a function's calling convention or a
# global's thread-local mode and address space, each with its argument
_LINKAGE_WORDS = frozenset({
    "private", "internal", "external", "linkonce", "weak", "common",
    "appending", "extern_weak", "linkonce_odr", "weak_odr",
    "available_externally", "dso_local", "dso_preemptable",
    "hidden", "protected", "default",
})
_CCONV_WORDS = frozenset({"ccc", "fastcc", "coldcc", "tailcc", "cc"})
_DEFINE_WORDS = _LINKAGE_WORDS | _CCONV_WORDS
_GLOBAL_WORDS = _LINKAGE_WORDS | {"thread_local", "unnamed_addr", "local_unnamed_addr",
                                  "addrspace", "externally_initialized"}

# the attributes of a return value, and those of a parameter or argument;
# LLVM 14 knows all but `allocalign`, `allocptr`, `captures`,
# `dead_on_unwind`, `initializes`, `nofpclass`, `range` and `writable`
_RETURN_ATTRS = frozenset({
    "align", "dereferenceable", "dereferenceable_or_null", "inreg", "noalias",
    "nonnull", "noundef", "signext", "zeroext",
})
_PARAM_ATTRS = _RETURN_ATTRS | {
    "allocalign", "allocptr", "alignstack", "byref", "byval", "captures",
    "dead_on_unwind", "elementtype", "immarg", "inalloca", "initializes", "nest",
    "nocapture", "nofpclass", "nofree", "preallocated", "range", "readnone",
    "readonly", "returned", "sret", "swiftasync", "swifterror", "swiftself",
    "writable", "writeonly",
}

# the `, word` items after a global's initializer, each with its argument
_GLOBAL_PROPS = frozenset({"align", "section", "partition", "comdat"})
# the instructions that take `, align N`
_ALIGNED = frozenset({"alloca", "load", "store"})

_PREDICATES = {"icmp": ICMP_PREDS, "fcmp": FCMP_PREDS}

# cast opcode -> (source type check, destination type check)
_CASTS = {
    "zext": (IrType.is_int, IrType.is_int),
    "sext": (IrType.is_int, IrType.is_int),
    "fptosi": (IrType.is_float, IrType.is_int),
    "uitofp": (IrType.is_int, IrType.is_float),
    "sitofp": (IrType.is_int, IrType.is_float),
}

# tokens that name a block where it is defined: `loop:`, `7:` and the
# quoted `"a b":`
_LABEL_KINDS = ("word", "num", "str")

MAX_NESTING = 256   # deeper types and initializers would exhaust the Python stack

# modelled routine -> how many arguments it reads, each an integer or a
# pointer; memcpy and memset may take more (the volatile flag)
_ROUTINE_ARGS = {"memcpy": 3, "memset": 3, "malloc": 1, "calloc": 2}


# One row per kind of token, tried in this order at each position; blanks
# before a token are part of its match.  Only three pairs can match at one
# position, and each keeps its order: `c"` is a c-string, not the word `c`;
# `...` is dots, not a word; and a sigil alone is dangling.  The rest go
# roughly by how often they occur, as every row tried costs time.  A quoted
# string stops at its first quote or newline, as neither escape (a hex pair
# or a doubled backslash) can hold either; the closing quote is optional here
# so that _unquote checks the escapes of an unterminated string before it
# reports the missing quote.  No token crosses a newline, so a line scanned
# alone splits as it does in the whole text.
_TOKENS = (
    ("punct", r"[()\[\]{}<>,=*:]"),
    ("cstr", r'c"[^"\n]*"?'),
    ("dots", r"\.\.\."),
    ("word", r"[A-Za-z$._][A-Za-z$._0-9]*"),
    ("lid", r'%(?:[-A-Za-z$._0-9]+|"[^"\n]*"?)'),
    ("nl", r"\n"),
    ("num", r"-?(?:0x[0-9A-Fa-f]+|\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"),
    ("gid", r'@(?:[-A-Za-z$._0-9]+|"[^"\n]*"?)'),
    ("comment", r";[^\n]*"),
    ("str", r'"[^"\n]*"?'),
    ("md", r"![A-Za-z$._0-9\\]*"),
    ("attr", r"#\d+"),
    ("dangling", r"[@%#]"),
    ("bad", r"[^ \t\r]"),
)
_BLANKS = r"[ \t\r]*"
# the lexer's scan: group 1 is the text of each token
_FAST_RE = re.compile(_BLANKS + "(" + "|".join(pattern for _, pattern in _TOKENS) + ")")

# A token's kind by its first character.  Four need a second look: `c` may
# start a word or a c-string, `.` a word or `...`, `-` a number or nothing,
# and a sigil alone is dangling.  A character missing here starts no token.
_FIRST_CHAR = {
    **dict.fromkeys(string.ascii_letters + "$_", "word"),
    **dict.fromkeys(string.digits, "num"),
    **dict.fromkeys(",=*:<>{}", "punct"),
    **dict.fromkeys("([", "open"),
    **dict.fromkeys(")]", "close"),
    "c": "c", ".": ".", "-": "-",
    "@": "gid", "%": "lid", "!": "md", "#": "attr", '"': "str",
    "\n": "nl", ";": "comment",
}

# inside a quoted string: an escape, a backslash that starts none, or a lone
# surrogate, which has no UTF-8 bytes
_ESCAPE_RE = re.compile(r"\\(?:\\|[0-9A-Fa-f]{2})?|[\ud800-\udfff]")


class _TokenFault(Exception):
    """A fault at a token, which parse_module reports as a ParseError at the
    token's line and column."""

    def __init__(self, message: str, tok):
        super().__init__(message)
        self.message = message
        self.tok = tok

    def placed(self, text: str) -> ParseError:
        _, _, line, nth = self.tok
        return ParseError(self.message, line, _column(text, line, nth))


def _column(text: str, line: int, nth: int) -> int:
    """The column of the `nth` token on `line` of `text`, found by scanning
    that line again.  A column counts characters from 1."""
    row = text.split("\n", line)[line - 1]
    return next(itertools.islice(_FAST_RE.finditer(row), nth, None)).start(1) + 1


def _statements(text: str):
    """The statements of `text`, each a list of (kind, value, line, nth)
    tokens, where nth counts the tokens before it on its line.  A newline
    ends a statement unless it falls inside (...) or [...], which is how
    multi-line switch tables stay parseable.  A punctuation token's kind is
    its text, and each statement ends in an ("end", "", line, nth) token
    placed at its last token."""
    statements, cur = [], []
    line, nth, depth = 1, 0, 0
    kind_of = _FIRST_CHAR.get
    for tok in _FAST_RE.findall(text):
        kind = kind_of(tok[0], "bad")
        if kind == "punct":
            cur.append((tok, tok, line, nth))
        elif kind == "word" or kind == "num":
            cur.append((kind, tok, line, nth))
        elif kind == "lid" or kind == "gid":
            value = tok[1:]
            if not value:
                raise _TokenFault(f"dangling '{tok}'", (kind, tok, line, nth))
            if value[0] == '"':
                value = _unquote(value, (kind, tok, line, nth)).decode("latin-1")
            cur.append((kind, value, line, nth))
        elif kind == "nl":
            line += 1
            nth = 0
            if depth == 0 and cur:
                cur.append(("end", "", *cur[-1][2:]))
                statements.append(cur)
                cur = []
            continue
        elif kind == "open":
            depth += 1
            cur.append((tok, tok, line, nth))
        elif kind == "close":
            if depth:
                depth -= 1
            cur.append((tok, tok, line, nth))
        elif kind == "c":
            if tok[1:2] == '"':
                cur.append(("cstr", _unquote(tok[1:], (kind, tok, line, nth)), line, nth))
            else:
                cur.append(("word", tok, line, nth))
        elif kind == "comment":
            continue
        elif kind == "md":
            cur.append((kind, tok[1:], line, nth))
        elif kind == "attr":
            if len(tok) == 1:
                raise _TokenFault("dangling '#'", (kind, tok, line, nth))
            cur.append((kind, tok[1:], line, nth))
        elif kind == "str":
            cur.append((kind, _unquote(tok, (kind, tok, line, nth)).decode("latin-1"), line, nth))
        elif kind == ".":
            cur.append(("dots" if tok == "..." else "word", tok, line, nth))
        elif kind == "-" and len(tok) > 1:
            cur.append(("num", tok, line, nth))
        else:
            raise _TokenFault(f"unexpected character {tok!r}", (kind, tok, line, nth))
        nth += 1
    if cur:
        cur.append(("end", "", *cur[-1][2:]))
        statements.append(cur)
    return statements


def _unquote(quoted: str, tok) -> bytes:
    """The bytes of the string `quoted`, with its quotes; a fault in it is
    raised at token `tok`.  Escapes are the IR printer's: a backslash
    followed by two hex digits, or a doubled backslash.  Any other character
    stands for its UTF-8 bytes, as LLVM reads the file as bytes."""
    closed = len(quoted) > 1 and quoted[-1] == '"'
    body = quoted[1:-1] if closed else quoted[1:]
    out, pos = bytearray(), 0
    for m in _ESCAPE_RE.finditer(body):
        esc = m.group()
        if esc[0] != "\\":
            raise _TokenFault(f"unexpected character {esc!r}", tok)
        if len(esc) == 1:
            raise _TokenFault("bad string escape", tok)
        out += body[pos:m.start()].encode()
        out.append(0x5C if esc == "\\\\" else int(esc[1:], 16))
        pos = m.end()
    if not closed:
        raise _TokenFault("unterminated string", tok)
    return bytes(out + body[pos:].encode())


def _end_block(block: IrBlock, tok):
    """`tok` starts the next block or closes the function."""
    if not block.instructions or block.instructions[-1].opcode not in TERMINATORS:
        raise _TokenFault(f"block '%{block.label}' does not end with a terminator", tok)


def _too_deep(tok):
    return _TokenFault(f"type or initializer nested more than {MAX_NESTING} levels deep", tok)


def _typed_operand_follows(cur):
    """Whether `cur` is at a comma and a type, which start one more operand
    (not `, align N` or metadata)."""
    if cur.peek()[0] != ",":
        return False
    kind, value, _, _ = cur.peek(1)
    return kind in ("[", "{", "lid") or (
        kind == "word" and (value in SCALARS or re.fullmatch(r"i\d+", value) is not None))


def _fold_gep(src, indices, line):
    """The layout of a getelementptr over `src`, as (offset, terms): the
    byte offset of its literal indices and struct fields, and one (operand,
    bits, stride) per other index, which is sign-extended from `bits` and
    scaled by `stride` when the instruction runs.  `indices` holds
    (operand, integer type) pairs."""
    offset, terms, cur = 0, [], src
    for k, (op, ity) in enumerate(indices):
        literal = op.__class__ is Const
        if k == 0:
            stride = src.size()
        elif cur.kind == "array":
            stride, cur = cur.elem.size(), cur.elem
        elif cur.kind == "struct":
            if not literal:
                raise ParseError(f"index into struct {cur!r} must be an integer literal", line)
            field = signed(op.value, ity.int_bits)
            if not 0 <= field < len(cur.fields):
                raise ParseError(f"struct field index {field} out of range for {cur!r}", line)
            offset += cur.field_offset(field)
            cur = cur.fields[field]
            continue
        else:
            raise ParseError(f"cannot index into type {cur!r}", line)
        if literal:
            offset += signed(op.value, ity.int_bits) * stride
        else:
            terms.append((op, ity.int_bits, stride))
    return offset, tuple(terms)


class _Cursor:
    """A window over the tokens of one statement.  It never moves past the
    end token, so peek() always returns a token."""

    __slots__ = ("toks", "i")

    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self, ahead=0):
        return self.toks[self.i + ahead]

    def at_end(self):
        return self.toks[self.i][0] == "end"

    def next(self):
        tok = self.toks[self.i]
        if tok[0] == "end":
            raise _TokenFault("unexpected end of statement", tok)
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise _TokenFault(f"expected {want!r}, found {tok[1]!r}", tok)
        return tok

    def expect_count(self):
        """A non-negative decimal integer, as an int."""
        tok = self.expect("num")
        if not tok[1].isdigit():
            raise _TokenFault(f"expected a non-negative integer, found {tok[1]!r}", tok)
        return int(tok[1])

    def accept(self, kind, value=None):
        tok = self.toks[self.i]
        if tok[0] == kind and (value is None or tok[1] == value):
            self.i += 1
            return tok
        return None

    def error(self, msg):
        raise _TokenFault(msg, self.toks[self.i])

    def expect_end(self):
        if not self.at_end():
            self.error(f"unexpected trailing token {self.peek()[1]!r}")


class _Parser:
    def __init__(self, text: str, source_name: str):
        self.statements = iter(_statements(text))
        self.type_defs = {}        # name -> a cursor after its `type` (unresolved)
        self.types = {}            # name -> IrType (resolved)
        self._resolving = []
        self._global_refs = []     # every @name token read as a value
        self._defined = {}         # @name -> "global" or "function"
        self.module = IrModule(source_name=source_name)

    # --- types ----------------------------------------------------------

    def resolve_named(self, name: str, where, depth: int = 0) -> IrType:
        if name in self.types:
            return self.types[name]
        if name not in self.type_defs:
            raise _TokenFault(f"unknown type '%{name}'", where)
        if name in self._resolving:
            raise _TokenFault(f"type '%{name}' nests itself by value", where)
        self._resolving.append(name)
        cur = self.type_defs[name]
        if cur.accept("word", "opaque"):
            ty = struct_of((), name="%" + name)
        else:
            ty = self.parse_type(cur, depth)
            if ty.kind == "struct" and not ty.name:
                ty = struct_of(ty.fields, name="%" + name)
        cur.expect_end()
        self._resolving.pop()
        self.types[name] = ty
        return ty

    def parse_type(self, cur: _Cursor, depth: int = 0) -> IrType:
        tok = cur.next()
        if depth > MAX_NESTING:
            raise _too_deep(tok)
        if tok[0] == "word":
            base = SCALARS.get(tok[1])
            if base is None:
                if re.fullmatch(r"i\d+", tok[1]):
                    raise _TokenFault(f"unsupported integer width '{tok[1]}'", tok)
                raise _TokenFault(f"expected a type, found {tok[1]!r}", tok)
        elif tok[0] == "[":
            count = cur.expect_count()
            cur.expect("word", "x")
            elem = self.parse_sized_type(cur, "an array element", depth + 1)
            cur.expect("]")
            base = array_of(elem, count)
        elif tok[0] == "{":
            fields = []
            if not cur.accept("}"):
                while True:
                    fields.append(self.parse_sized_type(cur, "a struct field", depth + 1))
                    if cur.accept("}"):
                        break
                    cur.expect(",")
            base = struct_of(fields)
        elif tok[0] == "lid":
            if cur.peek()[0] == "*":
                while cur.accept("*"):
                    pass
                return PTR
            base = self.resolve_named(tok[1], tok, depth + 1)
        elif tok[0] == "<":
            raise _TokenFault("vector and packed struct types are not supported", tok)
        else:
            raise _TokenFault(f"expected a type, found {tok[1]!r}", tok)
        while cur.accept("*"):
            base = PTR
        if base.depth > MAX_NESTING:    # named types can stack cached depth
            raise _too_deep(tok)
        return base

    def parse_sized_type(self, cur: _Cursor, what: str, depth: int = 0) -> IrType:
        """parse_type for a type that needs a size: anything but void."""
        tok = cur.peek()
        ty = self.parse_type(cur, depth)
        if ty.kind == "void":
            raise _TokenFault(f"{what} cannot be void", tok)
        return ty

    # --- constants and operands ------------------------------------------

    def parse_value(self, cur: _Cursor, ty: IrType):
        tok = cur.next()
        if tok[0] == "lid":
            return LocalRef(tok[1], ty)
        if tok[0] == "gid":
            self._global_refs.append(tok)
            return GlobalRef(tok[1])
        if tok[0] == "num":
            return Const(ty, self._number(tok, ty))
        if tok[0] == "word":
            if tok[1] == "true":
                return Const(I1, 1)
            if tok[1] == "false":
                return Const(I1, 0)
            if tok[1] == "null":
                return Const(PTR, 0)
            if tok[1] in ("undef", "poison"):
                return Const(ty, 0.0 if ty.is_float() else 0)
            if tok[1] == "zeroinitializer":
                if ty.is_float():
                    return Const(ty, 0.0)
                if ty.is_int() or ty.kind == "ptr":
                    return Const(ty, 0)
                raise _TokenFault("aggregate operands are not supported here", tok)
            if tok[1] == "getelementptr":
                return self.parse_const_gep(cur)
        raise _TokenFault(f"expected a value, found {tok[1]!r}", tok)

    def _number(self, tok, ty: IrType):
        text = tok[1]
        try:
            if ty.is_float():
                if text.lstrip("-").startswith("0x"):
                    import struct as _s
                    val = _s.unpack("<d", int(text.lstrip("-"), 16).to_bytes(8, "little"))[0]
                    return -val if text.startswith("-") else val
                return float(text)
            if ty.is_int() or ty.kind == "ptr":
                base = 16 if text.lstrip("-").startswith("0x") else 10
                value = int(text, base)
                bits = 32 if ty.kind == "ptr" else ty.int_bits
                return value & ((1 << bits) - 1)
        except (ValueError, OverflowError):      # not a number, or a double over 64 bits
            raise _TokenFault(f"bad {ty!r} literal {text!r}", tok) from None
        raise _TokenFault(f"literal not valid for type {ty!r}", tok)

    def parse_const_gep(self, cur: _Cursor) -> ConstGep:
        self._skip_flags(cur, _OPCODE_FLAGS["getelementptr"])
        cur.expect("(")
        src = self.parse_sized_type(cur, "a getelementptr source")
        cur.expect(",")
        self.parse_type(cur)  # pointer type of the base
        base_tok = cur.expect("gid")
        self._global_refs.append(base_tok)
        indices = self._gep_indices(cur)
        cur.expect(")")
        if any(op.__class__ is not Const for op, _ in indices):
            raise _TokenFault("constant getelementptr indices must be integer literals", base_tok)
        offset, _ = _fold_gep(src, indices, base_tok[2])
        return ConstGep(GlobalRef(base_tok[1]), offset)

    def _gep_indices(self, cur: _Cursor):
        """The `, type value` indices of a getelementptr, as (operand, type)."""
        indices = []
        while _typed_operand_follows(cur):
            cur.next()
            ity = self.parse_type(cur)
            if not ity.is_int():
                cur.error("getelementptr indices must be integers")
            indices.append((self.parse_value(cur, ity), ity))
        return indices

    def _skip_group(self, cur: _Cursor):
        """Skip the balanced (...) group that starts at the cursor, if one
        does."""
        if not cur.accept("("):
            return
        depth = 1
        while depth:
            kind = cur.next()[0]
            if kind == "(":
                depth += 1
            elif kind == ")":
                depth -= 1

    def _skip_attrs(self, cur: _Cursor, words=None):
        """Skip a run of attributes, each a word of `words` with its
        argument: `align N` or a (...) group.  words=None reads the function
        attributes after a call's arguments or a definition's parameters:
        any word, `section "x"`, and `#N` groups, which LLVM allows nowhere
        else."""
        while True:
            tok = cur.peek()
            if tok[0] == "word" and (words is None or tok[1] in words):
                cur.next()
                if cur.peek()[0] == "(":
                    self._skip_group(cur)
                elif tok[1] == "align":
                    cur.expect_count()
                elif words is None:
                    cur.accept("str")
            elif tok[0] == "attr" and words is None:
                cur.next()
            else:
                return

    def _skip_flags(self, cur: _Cursor, words):
        """Skip a run of `words`, each with its argument: the number after
        `cc`, or a (...) group after `thread_local` or `addrspace`.  Only a
        fast-math flag may stand twice.  Return the first, or None."""
        first, seen = None, ()
        while (tok := cur.peek())[0] == "word" and tok[1] in words:
            if tok[1] in seen:
                raise _TokenFault(f"repeated {tok[1]!r}", tok)
            if tok[1] not in _FAST_MATH_FLAGS:
                seen += (tok[1],)
            cur.next()
            if tok[1] == "cc":
                cur.expect_count()
            elif tok[1] == "thread_local" or tok[1] == "addrspace":
                self._skip_group(cur)
            first = first or tok
        return first

    def _skip_trailer(self, cur: _Cursor, words) -> int:
        """Skip the `, !name !N` items that end a statement, and the `, align
        N`, `, section "x"`, `, partition "x"` and `, comdat` items for the
        words of `words`; return N, or 0 without `align`."""
        align = 0
        while cur.accept(","):
            tok = cur.next()
            if tok[0] == "md":
                cur.expect("md")
            elif tok[0] != "word" or tok[1] not in words:
                raise _TokenFault(f"expected metadata, found {tok[1]!r}", tok)
            elif tok[1] == "align":
                align = cur.expect_count()
            elif tok[1] == "comdat":
                self._skip_group(cur)
            else:
                cur.expect("str")
        return align

    # --- top level --------------------------------------------------------

    def parse(self) -> IrModule:
        for line in self.statements:
            first = line[0]
            if first[0] == "md" or (
                first[0] == "word"
                and (first[1] in ("source_filename", "target", "attributes", "module")
                     or first[1].startswith("$"))
            ):
                continue
            if first[0] == "lid":
                self._collect_type_def(line)
            elif first[0] == "word" and first[1] == "declare":
                self._parse_declare(line)
            elif first[0] == "gid":
                self._parse_global(line)
            elif first[0] == "word" and first[1] == "define":
                self._parse_define(line)
            else:
                raise _TokenFault(f"unexpected top-level token {first[1]!r}", first)
        self._finish()
        return self.module

    def _collect_type_def(self, line):
        cur = _Cursor(line)
        name = cur.expect("lid")[1]
        cur.expect("=")
        cur.expect("word", "type")
        self.type_defs[name] = cur

    def _parse_declare(self, line):
        if not any(tok[0] == "gid" for tok in line):
            raise _TokenFault("declare without a function name", line[0])

    def _define(self, tok, what: str) -> str:
        """Claim the `@` name that `tok` defines for a global or a function,
        and return it.  Each name is defined once, by one or the other."""
        name = tok[1]
        prev = self._defined.get(name)
        if prev == what:
            raise _TokenFault(f"duplicate {what} definition '@{name}'", tok)
        if prev is not None:
            raise _TokenFault(f"{what} '@{name}' has the name of a {prev}", tok)
        self._defined[name] = what
        return name

    def _parse_global(self, line):
        cur = _Cursor(line)
        name = self._define(cur.expect("gid"), "global")
        cur.expect("=")
        linkage = self._skip_flags(cur, _GLOBAL_WORDS)
        keyword = cur.expect("word")
        if keyword[1] not in ("global", "constant"):
            raise _TokenFault(f"expected 'global' or 'constant', found {keyword[1]!r}", keyword)
        ty = self.parse_sized_type(cur, "a global")
        init = None
        # as in LLVM, an external declaration has no initializer, and every
        # other global has one
        external = linkage is not None and linkage[1] in ("external", "extern_weak")
        if cur.peek()[0] not in (",", "attr", "end"):
            if external:
                cur.error(f"an {linkage[1]} global takes no initializer")
            init = self._parse_init(cur, ty)
        elif not external:
            cur.error("missing initializer")
        align = self._skip_trailer(cur, _GLOBAL_PROPS)
        while cur.accept("attr"):
            pass
        cur.expect_end()
        self.module.globals.append(GlobalVar(name, ty, init, keyword[1] == "constant", align))

    def _parse_init(self, cur: _Cursor, ty: IrType, depth: int = 0):
        tok = cur.peek()
        if tok[0] == "end":
            cur.error("missing initializer")
        if depth > MAX_NESTING:
            raise _too_deep(tok)
        if tok[0] == "cstr":
            cur.next()
            return tok[1]
        if tok[0] == "word" and tok[1] == "zeroinitializer":
            cur.next()
            return ("zero",)
        if tok[0] == "word" and tok[1] in ("undef", "poison"):
            cur.next()
            return ("zero",)
        if ty.kind in ("array", "struct"):
            close = "]" if ty.kind == "array" else "}"
            cur.expect("[" if ty.kind == "array" else "{")
            types, items = [], []
            if not cur.accept(close):
                while True:
                    types.append(self.parse_type(cur))
                    items.append(self._parse_init(cur, types[-1], depth + 1))
                    if cur.accept(close):
                        break
                    cur.expect(",")
            if ty.kind == "array":
                matches = len(types) == ty.count and all(t == ty.elem for t in types)
            else:
                matches = types == list(ty.fields)
            if not matches:
                raise _TokenFault(f"initializer does not match type {ty!r}", tok)
            return items
        value = self.parse_value(cur, ty)
        if isinstance(value, Const):
            return value.value
        if isinstance(value, (GlobalRef, ConstGep)):
            return value
        cur.error("global initializer must be a constant")

    # --- functions ----------------------------------------------------------

    def _parse_define(self, line):
        cur = _Cursor(line)
        cur.expect("word", "define")
        self._skip_flags(cur, _DEFINE_WORDS)
        self._skip_attrs(cur, _RETURN_ATTRS)
        ret_ty = self.parse_type(cur)
        name_tok = cur.expect("gid")
        self._define(name_tok, "function")
        cur.expect("(")
        params = []
        auto = 0
        if not cur.accept(")"):
            while True:
                if cur.peek()[0] == "dots":
                    cur.error("variadic functions are not supported")
                pty = self.parse_type(cur)
                self._skip_attrs(cur, _PARAM_ATTRS)
                ptok = cur.accept("lid")
                if ptok:
                    pname = ptok[1]
                    if pname == str(auto):
                        auto += 1
                else:
                    pname = str(auto)
                    auto += 1
                params.append((pname, pty))
                if cur.accept(")"):
                    break
                cur.expect(",")
        self._skip_attrs(cur)
        while cur.accept("md"):     # `!dbg !N` attachments
            cur.expect("md")
        if cur.at_end():
            cur.error("function definition without a body")
        cur.expect("{")
        if not cur.at_end():
            cur.error("code on the same line as '{'")
        self._parse_body(IrFunction(name_tok[1], ret_ty, params), str(auto), line)

    def _parse_body(self, func: IrFunction, entry_hint: str, line):
        """Read the statements of `func`'s body, up to its `}`; `line` is
        the statement that opens it."""
        block = None
        labels = set()
        for line in self.statements:
            first = line[0]
            if first[0] == "}":
                if block is None:
                    raise _TokenFault("function has no blocks", first)
                _end_block(block, first)
                self._link(func)
                return
            cur = _Cursor(line)
            label = None
            if first[0] in _LABEL_KINDS and line[1][0] == ":":
                if block is not None:
                    _end_block(block, first)
                label = first[1]
                cur.i = 2
            elif block is None:
                label = entry_hint
            if label is not None:
                if label in labels:
                    raise _TokenFault(f"duplicate block label '%{label}'", first)
                labels.add(label)
                block = IrBlock(label=label)
                func.blocks.append(block)
            if not cur.at_end():
                self._parse_instruction(cur, block)
        # `line` is the last statement of the text
        raise ParseError("unterminated function body (missing '}')", line[0][2], 0)

    def _link(self, func: IrFunction):
        """Derive the control-flow graph (block map, successors,
        predecessors, phi maps) and its dominator tree, check every edge
        and every use of a register against them, and add the function to
        the module.  A phi uses its operand at the end of the incoming block;
        as in LLVM, a use in a block the entry does not reach passes."""
        func.block_map = {b.label: b for b in func.blocks}
        # register -> (type, block, position) of its definition
        defs = {name: (ty, None, 0) for name, ty in func.params}
        for b in func.blocks:
            for pos, ins in enumerate(b.instructions):
                if ins.result is not None:
                    if ins.result in defs:
                        raise ParseError(f"register '%{ins.result}' is defined twice", ins.line)
                    defs[ins.result] = ins.type, b.label, pos
            term = b.instructions[-1]
            for lbl in term.labels + [lbl for _, lbl in term.cases]:
                target = func.block_map.get(lbl)
                if target is None:
                    raise ParseError(f"branch to unknown label '%{lbl}'", term.line)
                if target is func.entry:
                    raise ParseError(f"branch to the entry block '%{lbl}'", term.line)
                if lbl not in b.succs:
                    b.succs.append(lbl)
                    target.preds.append(b.label)
            if term.opcode == "ret" and term.type != func.return_type:
                raise ParseError(f"'ret {term.type!r}' in a function returning "
                                 f"{func.return_type!r}", term.line)
        func.idom = idom = _dominators(func)
        def check(op, at, when, line):
            found = defs.get(op.name)
            if found is None:
                raise UnresolvedReferenceError(op.name, "register", line)
            ty, home, where = found
            if ty is not op.type and ty != op.type:
                raise ParseError(f"'%{op.name}' is {ty!r}, used as {op.type!r}", line)
            if home is not None and at in idom and (
                    where >= when if home == at else not func.dominates(home, at)):
                raise ParseError(f"this use of '%{op.name}' is not dominated by its "
                                 f"definition in '%{home}'", line)
        for b in func.blocks:
            label = b.label
            for pos, ins in enumerate(b.instructions):
                if ins.opcode == "phi":     # phis lead their block
                    b.phi_count += 1
                    ins.incoming_map = {lbl: op for op, lbl in ins.incoming}
                    seen = sorted(lbl for _, lbl in ins.incoming)
                    if seen != sorted(b.preds):
                        raise ParseError(f"phi predecessors {seen} do not match block "
                                         f"predecessors {sorted(b.preds)}", ins.line)
                    for op, lbl in ins.incoming:
                        if op.__class__ is LocalRef:
                            check(op, lbl, len(func.block_map[lbl].instructions), ins.line)
                else:
                    for op in ins.operands:
                        if op.__class__ is LocalRef:
                            check(op, label, pos, ins.line)
        self.module.functions.append(func)

    # --- instructions ---------------------------------------------------------

    def _parse_instruction(self, cur: _Cursor, block: IrBlock):
        """Parse one instruction and append it to `block`."""
        first = cur.peek()
        result = None
        if first[0] == "lid":
            cur.next()
            cur.expect("=")
            result = first[1]
        tok = cur.next()
        if tok[0] != "word":
            raise _TokenFault(f"expected an opcode, found {tok[1]!r}", tok)
        opcode = tok[1]
        if opcode in ("tail", "musttail", "notail"):
            tok = cur.expect("word", "call")
            opcode = "call"
        if opcode not in SUPPORTED_OPCODES:
            if opcode in KNOWN_LLVM_OPCODES:
                raise UnsupportedOpcodeError(opcode, tok[2])
            raise _TokenFault(f"unknown opcode {opcode!r}", tok)

        ins = IrInstruction(opcode=opcode, result=result, line=tok[2])
        flags = _OPCODE_FLAGS.get(opcode)
        flag = self._skip_flags(cur, flags) if flags is not None else None
        _READERS[opcode](self, cur, ins)
        if flag and (opcode == "phi" or opcode == "call") and not ins.type.is_float():
            raise _TokenFault(f"fast-math flags on a '{opcode}' of type {ins.type!r}", flag)
        if not cur.at_end():
            ins.align = self._skip_trailer(cur, ("align",) if opcode in _ALIGNED else ())
            cur.expect_end()
        produces = not (opcode in TERMINATORS or opcode == "store"
                        or (opcode == "call" and ins.type is VOID))
        if (result is not None) != produces:
            raise _TokenFault(f"'{opcode}' {'must assign its' if produces else 'cannot produce a'}"
                             " result", tok)
        if block.instructions:
            prev = block.instructions[-1].opcode
            if prev in TERMINATORS:
                raise _TokenFault(f"'{opcode}' after the terminator of block '%{block.label}'", first)
            if opcode == "phi" and prev != "phi":
                raise _TokenFault("phi after a non-phi instruction", first)
        block.instructions.append(ins)

    def _ins_binop(self, cur: _Cursor, ins: IrInstruction):
        ty = self.parse_type(cur)
        a = self.parse_value(cur, ty)
        cur.expect(",")
        b = self.parse_value(cur, ty)
        ins.type = ty
        ins.operands = [a, b]
        if ins.opcode.startswith("f") and not ty.is_float():
            cur.error(f"'{ins.opcode}' needs a float type")
        if not ins.opcode.startswith("f") and not ty.is_int():
            cur.error(f"'{ins.opcode}' needs an integer type")

    def _ins_fneg(self, cur, ins):
        ty = self.parse_type(cur)
        if not ty.is_float():
            cur.error("'fneg' needs a float type")
        ins.type = ty
        ins.operands = [self.parse_value(cur, ty)]

    def _ins_cmp(self, cur, ins):
        pred = cur.expect("word")
        if pred[1] not in _PREDICATES[ins.opcode]:
            raise _TokenFault(f"unknown {ins.opcode} predicate {pred[1]!r}", pred)
        ty = self.parse_type(cur)
        if ins.opcode == "fcmp" and not ty.is_float():
            cur.error("'fcmp' needs a float type")
        if ins.opcode == "icmp" and not (ty.is_int() or ty.kind == "ptr"):
            cur.error("'icmp' needs an integer or pointer type")
        a = self.parse_value(cur, ty)
        cur.expect(",")
        b = self.parse_value(cur, ty)
        ins.pred = pred[1]
        ins.type = I1
        ins.operands = [a, b]

    def _ins_cast(self, cur, ins):
        src_ok, dst_ok = _CASTS[ins.opcode]
        ty = self.parse_type(cur)
        val = self.parse_value(cur, ty)
        cur.expect("word", "to")
        dst = self.parse_type(cur)
        if not src_ok(ty) or not dst_ok(dst):
            cur.error(f"bad operand types for '{ins.opcode}'")
        if ins.opcode in ("zext", "sext") and dst.int_bits <= ty.int_bits:
            cur.error(f"'{ins.opcode}' needs a destination wider than {ty!r}, found {dst!r}")
        ins.type = dst
        ins.source_type = ty
        ins.operands = [val]

    def _ins_alloca(self, cur, ins):
        ty = self.parse_sized_type(cur, "'alloca'")
        count = Const(I32, 1)
        if _typed_operand_follows(cur):
            cur.next()
            cty = self.parse_type(cur)
            if not cty.is_int():
                cur.error("'alloca' count must be an integer")
            count = self.parse_value(cur, cty)
        ins.type = PTR
        ins.source_type = ty
        ins.operands = [count]

    def _pointer(self, cur, opcode):
        """The typed pointer operand of a load, store or getelementptr."""
        if self.parse_type(cur).kind != "ptr":
            cur.error(f"'{opcode}' needs a pointer operand")
        return self.parse_value(cur, PTR)

    def _ins_load(self, cur, ins):
        if cur.peek()[:2] == ("word", "atomic"):
            cur.error("atomic loads are not supported")
        ty = self.parse_sized_type(cur, "'load'")
        cur.expect(",")
        ins.type = ty
        ins.operands = [self._pointer(cur, "load")]

    def _ins_store(self, cur, ins):
        if cur.peek()[:2] == ("word", "atomic"):
            cur.error("atomic stores are not supported")
        tok = cur.peek()
        ty = self.parse_sized_type(cur, "'store'")
        if ty.kind in ("array", "struct"):
            raise _TokenFault(f"'store' of an aggregate value {ty!r} is not supported", tok)
        val = self.parse_value(cur, ty)
        cur.expect(",")
        ins.type = ty
        ins.operands = [val, self._pointer(cur, "store")]

    def _ins_getelementptr(self, cur, ins):
        src = self.parse_sized_type(cur, "a getelementptr source")
        cur.expect(",")
        base = self._pointer(cur, "getelementptr")
        indices = self._gep_indices(cur)
        ins.type = PTR
        ins.source_type = src
        ins.operands = [base] + [op for op, _ in indices]
        ins.gep = _fold_gep(src, indices, ins.line)

    def _ins_phi(self, cur, ins):
        ty = self.parse_type(cur)
        ins.type = ty
        while True:
            cur.expect("[")
            val = self.parse_value(cur, ty)
            cur.expect(",")
            lbl = cur.expect("lid")
            cur.expect("]")
            ins.incoming.append((val, lbl[1]))
            if not cur.accept(","):
                break

    def _ins_call(self, cur, ins):
        self._skip_flags(cur, _CCONV_WORDS)
        self._skip_attrs(cur, _RETURN_ATTRS)
        rty = self.parse_type(cur)
        self._skip_group(cur)       # a function type, as in `call i32 (ptr, ...) @f(...)`
        if cur.peek()[0] == "lid":
            cur.error("indirect calls are not supported")
        callee = cur.expect("gid")[1]
        cur.expect("(")
        args = []
        if not cur.accept(")"):
            while True:
                aty = self.parse_type(cur)
                self._skip_attrs(cur, _PARAM_ATTRS)
                args.append(self.parse_value(cur, aty))
                if cur.accept(")"):
                    break
                cur.expect(",")
        self._skip_attrs(cur)
        ins.type = rty
        ins.callee = callee
        ins.operands = args

    def _ins_br(self, cur, ins):
        if cur.accept("word", "label"):
            ins.labels = [cur.expect("lid")[1]]
            return
        ty = self.parse_type(cur)
        if ty is not I1:
            cur.error("conditional branch needs an i1 condition")
        cond = self.parse_value(cur, ty)
        cur.expect(",")
        cur.expect("word", "label")
        t = cur.expect("lid")[1]
        cur.expect(",")
        cur.expect("word", "label")
        f = cur.expect("lid")[1]
        ins.operands = [cond]
        ins.labels = [t, f]

    def _ins_switch(self, cur, ins):
        ty = self.parse_type(cur)
        if not ty.is_int():
            cur.error("'switch' needs an integer operand")
        val = self.parse_value(cur, ty)
        cur.expect(",")
        cur.expect("word", "label")
        default = cur.expect("lid")[1]
        cur.expect("[")
        cases, seen = [], set()
        while not cur.accept("]"):
            ttok = cur.peek()
            if self.parse_type(cur) != ty:
                raise _TokenFault(f"'switch' case is not of the operand's type {ty!r}", ttok)
            ctok = cur.expect("num")
            cval = self._number(ctok, ty)
            if cval in seen:
                raise _TokenFault(f"duplicate 'switch' case value {ctok[1]}", ctok)
            seen.add(cval)
            cur.expect(",")
            cur.expect("word", "label")
            cases.append((cval, cur.expect("lid")[1]))
        ins.type = ty
        ins.operands = [val]
        ins.labels = [default]
        ins.cases = cases

    def _ins_ret(self, cur, ins):
        if cur.accept("word", "void"):
            ins.type = VOID
            return
        ty = self.parse_type(cur)
        ins.type = ty
        ins.operands = [self.parse_value(cur, ty)]

    # --- finishing -------------------------------------------------------

    def _finish(self):
        """Number blocks and instructions in source order, and resolve what
        may be defined after its first use: every global named as a value,
        and every callee, against which each call is checked."""
        for tok in self._global_refs:
            if self._defined.get(tok[1]) != "global":
                raise UnresolvedReferenceError(tok[1], "global", tok[2])
        functions = {f.name: f for f in self.module.functions}
        block_id = 0
        inst_id = 0
        for f in self.module.functions:
            for b in f.blocks:
                b.static_id = block_id
                block_id += 1
                for ins in b.instructions:
                    ins.static_id = inst_id
                    inst_id += 1
                    if ins.opcode == "call":
                        _check_call(ins, functions.get(ins.callee))


# opcode -> the method that reads the rest of its instruction
_READERS = {op: _Parser._ins_cast if op in _CASTS else _Parser._ins_cmp if op in _PREDICATES
            else getattr(_Parser, "_ins_" + op, _Parser._ins_binop) for op in SUPPORTED_OPCODES}


def _dominators(func: IrFunction) -> dict:
    """label -> immediate dominator's label for each block the entry
    reaches, the entry's None, by the iterative algorithm of Cooper, Harvey
    and Kennedy ("A Simple, Fast Dominance Algorithm", 2001) over the
    blocks in reverse postorder."""
    blocks, entry = func.block_map, func.entry.label
    order, seen, stack = [], {entry}, [(entry, iter(func.entry.succs))]
    while stack:
        for target in stack[-1][1]:
            if target not in seen:
                seen.add(target)
                stack.append((target, iter(blocks[target].succs)))
                break
        else:
            order.append(stack.pop()[0])
    order.reverse()
    number = {label: i for i, label in enumerate(order)}
    idom = {entry: entry}
    changed = True
    while changed:
        changed = False
        for label in order[1:]:
            new = None      # set below: the block's parent in the walk is done before it
            for p in blocks[label].preds:
                if p not in idom:       # not reached, or not yet done
                    continue
                if new is None:
                    new = p
                while p != new:         # climb to where the two paths to the entry meet
                    while number[p] > number[new]:
                        p = idom[p]
                    while number[new] > number[p]:
                        new = idom[new]
            if idom.get(label) != new:
                idom[label] = new
                changed = True
    idom[entry] = None
    return idom


def _check_call(ins: IrInstruction, callee: IrFunction | None):
    """A call passes what its callee takes: a defined function's parameter
    types and returns its type, and a modelled routine gets the integer or
    pointer arguments it reads."""
    if callee is not None:
        want = [ty for _, ty in callee.params]
        if [op.type for op in ins.operands] != want or ins.type != callee.return_type:
            raise ParseError(f"call to '@{callee.name}' does not match its type "
                             f"{callee.return_type!r} ({', '.join(map(repr, want))})", ins.line)
        return
    if not is_recognized_callee(ins.callee):
        raise UnresolvedReferenceError(ins.callee, "call target", ins.line)
    kind = mem_intrinsic_kind(ins.callee)
    n = _ROUTINE_ARGS.get(kind or ins.callee)
    if n is None:       # free and the no-op intrinsics read no argument
        return
    args = ins.operands
    if (len(args) < n or (kind is None and len(args) > n)
            or not all(op.type.is_int() or op.type.kind == "ptr" for op in args[:n])):
        raise ParseError(f"'@{ins.callee}' takes {'at least ' if kind else ''}"
                         f"{n} integer or pointer arguments", ins.line)


def parse_module(text: str, source_name: str = "<string>") -> IrModule:
    """Parse IR text into a validated IrModule."""
    try:
        return _Parser(text, source_name).parse()
    except _TokenFault as fault:
        raise fault.placed(text) from None


def parse_file(path) -> IrModule:
    """Parse the IR file at `path`, read as UTF-8; a byte that is not UTF-8
    is a ParseError at its line and column."""
    from pathlib import Path

    p = Path(path)
    return parse_module(read_text(p, ParseError), source_name=p.name)
