"""Textual parser for the supported LLVM IR subset.

The lexer turns the whole file into tokens, the parser groups them into
logical lines (newlines inside (...) or [...] do not end a statement, which
is how multi-line switch tables stay parseable) and consumes each line with
a per-opcode grammar.  Metadata, attribute groups, and debug decorations
are skipped; opcodes outside the subset raise UnsupportedOpcodeError so a
program we cannot simulate faithfully is rejected instead of guessed at.
"""

import re

from .errors import ParseError, UnsupportedOpcodeError, UnresolvedReferenceError
from .irtypes import (
    IrType, SCALARS, PTR, VOID, I1, I32, array_of, struct_of, gep_offset,
)
from .irmodel import (
    IrModule, IrFunction, IrBlock, IrInstruction, GlobalVar,
    Const, LocalRef, GlobalRef, ConstGep,
    SUPPORTED_OPCODES, KNOWN_LLVM_OPCODES, TERMINATORS,
    link_function, is_recognized_callee,
)

ICMP_PREDS = frozenset({"eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge", "slt", "sle"})
FCMP_PREDS = frozenset({
    "false", "oeq", "ogt", "oge", "olt", "ole", "one", "ord",
    "ueq", "ugt", "uge", "ult", "ule", "une", "uno", "true",
})

_FLAG_WORDS = frozenset({
    "nuw", "nsw", "exact", "disjoint", "nneg", "inbounds", "volatile",
    "fast", "nnan", "ninf", "nsz", "arcp", "contract", "afn", "reassoc",
})

_LINKAGE_WORDS = frozenset({
    "private", "internal", "external", "linkonce", "weak", "common",
    "appending", "extern_weak", "linkonce_odr", "weak_odr",
    "available_externally", "dso_local", "dso_preemptable",
    "hidden", "protected", "default", "unnamed_addr", "local_unnamed_addr",
    "externally_initialized", "constant", "global",
})

_CCONV_WORDS = frozenset({"ccc", "fastcc", "coldcc", "tailcc", "cc"})

_VALUE_WORDS = frozenset({
    "true", "false", "null", "undef", "poison", "zeroinitializer",
    "getelementptr",
})

_PREDICATES = {"icmp": ICMP_PREDS, "fcmp": FCMP_PREDS}

# cast opcode -> (source type check, destination type check)
_CASTS = {
    "zext": (IrType.is_int, IrType.is_int),
    "sext": (IrType.is_int, IrType.is_int),
    "fptosi": (IrType.is_float, IrType.is_int),
    "uitofp": (IrType.is_int, IrType.is_float),
    "sitofp": (IrType.is_int, IrType.is_float),
}

MAX_NESTING = 256   # deeper types and initializers would exhaust the Python stack


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}:{self.value!r}@{self.line}:{self.col}"


_WORD_RE = re.compile(r"[A-Za-z$._][A-Za-z$._0-9]*")
_NAME_RE = re.compile(r"[-A-Za-z$._0-9]+")
_NUM_RE = re.compile(r"-?(?:0x[0-9A-Fa-f]+|\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)")
_MDNAME_RE = re.compile(r"[A-Za-z$._0-9\\]+")


def _lex(text: str):
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            tokens.append(Token("nl", "\n", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col

        def emit(kind, value, width):
            nonlocal i, col
            tokens.append(Token(kind, value, line, start_col))
            i += width
            col += width

        if c == "c" and i + 1 < n and text[i + 1] == '"':
            s, width = _lex_string(text, i + 1, line, start_col)
            tokens.append(Token("cstr", s, line, start_col))
            i += width + 1
            col += width + 1
            continue
        if c == '"':
            s, width = _lex_string(text, i, line, start_col)
            tokens.append(Token("str", s.decode("latin-1"), line, start_col))
            i += width
            col += width
            continue
        if c in "@%":
            m = _NAME_RE.match(text, i + 1)
            if m:
                emit("gid" if c == "@" else "lid", m.group(0), 1 + len(m.group(0)))
                continue
            if i + 1 < n and text[i + 1] == '"':
                s, width = _lex_string(text, i + 1, line, start_col)
                emit("gid" if c == "@" else "lid", s.decode("latin-1"), 1 + width)
                continue
            raise ParseError(f"dangling '{c}'", line, start_col)
        if c == "!":
            m = _MDNAME_RE.match(text, i + 1)
            emit("md", m.group(0) if m else "", 1 + (len(m.group(0)) if m else 0))
            continue
        if c == "#":
            m = re.compile(r"\d+").match(text, i + 1)
            if not m:
                raise ParseError("dangling '#'", line, start_col)
            emit("attr", m.group(0), 1 + len(m.group(0)))
            continue
        if text.startswith("...", i):
            emit("dots", "...", 3)
            continue
        m = _NUM_RE.match(text, i)
        if m and (c.isdigit() or (c == "-" and len(m.group(0)) > 1)):
            emit("num", m.group(0), len(m.group(0)))
            continue
        m = _WORD_RE.match(text, i)
        if m:
            emit("word", m.group(0), len(m.group(0)))
            continue
        if c in "()[]{}<>,=*:":
            emit(c, c, 1)
            continue
        raise ParseError(f"unexpected character {c!r}", line, start_col)
    tokens.append(Token("nl", "\n", line, col))
    return tokens


def _lex_string(text: str, start: int, line: int, col: int):
    """Lex a double-quoted string starting at text[start] == '"'.

    Returns (bytes, consumed_width).  Escapes are the IR printer's: a
    backslash followed by two hex digits, or a doubled backslash.
    """
    assert text[start] == '"'
    out = bytearray()
    i = start + 1
    while i < len(text):
        c = text[i]
        if c == '"':
            return bytes(out), i + 1 - start
        if c == "\n":
            break
        if c == "\\":
            if text[i + 1 : i + 2] == "\\":
                out.append(0x5C)
                i += 2
                continue
            hexpair = text[i + 1 : i + 3]
            if len(hexpair) == 2 and all(h in "0123456789abcdefABCDEF" for h in hexpair):
                out.append(int(hexpair, 16))
                i += 3
                continue
            raise ParseError("bad string escape", line, col)
        out.append(ord(c) & 0xFF)
        i += 1
    raise ParseError("unterminated string", line, col)


def _logical_lines(tokens):
    """Group tokens into statements; (...) and [...] spans swallow newlines."""
    lines = []
    cur = []
    depth = 0
    for tok in tokens:
        if tok.kind in ("(", "["):
            depth += 1
        elif tok.kind in (")", "]") and depth > 0:
            depth -= 1
        if tok.kind == "nl":
            if depth == 0:
                if cur:
                    lines.append(cur)
                    cur = []
                continue
            continue
        cur.append(tok)
    if cur:
        lines.append(cur)
    return lines


def _end_block(block: IrBlock, tok: Token):
    """`tok` starts the next block or closes the function."""
    if not block.instructions or block.instructions[-1].opcode not in TERMINATORS:
        raise ParseError(f"block '%{block.label}' does not end with a terminator",
                         tok.line, tok.col)


def _too_deep(tok):
    return ParseError(f"type or initializer nested more than {MAX_NESTING} levels deep",
                      tok.line, tok.col)


class _Cursor:
    """A window over one logical line of tokens."""

    __slots__ = ("toks", "i")

    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self, ahead=0):
        j = self.i + ahead
        return self.toks[j] if j < len(self.toks) else None

    def at_end(self):
        return self.i >= len(self.toks)

    def next(self):
        tok = self.peek()
        if tok is None:
            last = self.toks[-1] if self.toks else None
            raise ParseError("unexpected end of statement",
                             last.line if last else None, last.col if last else None)
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.value!r}", tok.line, tok.col)
        return tok

    def accept(self, kind, value=None):
        tok = self.peek()
        if tok is not None and tok.kind == kind and (value is None or tok.value == value):
            self.i += 1
            return tok
        return None

    def error(self, msg):
        tok = self.peek() or (self.toks[-1] if self.toks else None)
        raise ParseError(msg, tok.line if tok else None, tok.col if tok else None)


class _Parser:
    def __init__(self, text: str, source_name: str):
        self.lines = _logical_lines(_lex(text))
        self.source_name = source_name
        self.type_defs = {}        # name -> token list (unresolved)
        self.types = {}            # name -> IrType (resolved)
        self._resolving = []
        self.module = IrModule(source_name=source_name)

    # --- types ----------------------------------------------------------

    def resolve_named(self, name: str, where: Token, depth: int = 0) -> IrType:
        if name in self.types:
            return self.types[name]
        if name not in self.type_defs:
            raise ParseError(f"unknown type '%{name}'", where.line, where.col)
        if name in self._resolving:
            raise ParseError(f"type '%{name}' nests itself by value", where.line, where.col)
        self._resolving.append(name)
        cur = _Cursor(self.type_defs[name])
        if cur.accept("word", "opaque"):
            ty = struct_of((), name="%" + name)
        else:
            ty = self.parse_type(cur, depth)
            if ty.kind == "struct" and not ty.name:
                ty = struct_of(ty.fields, name="%" + name)
        self._resolving.pop()
        self.types[name] = ty
        return ty

    def parse_type(self, cur: _Cursor, depth: int = 0) -> IrType:
        tok = cur.next()
        if depth > MAX_NESTING:
            raise _too_deep(tok)
        if tok.kind == "word":
            base = SCALARS.get(tok.value)
            if base is None:
                if re.fullmatch(r"i\d+", tok.value):
                    raise ParseError(f"unsupported integer width '{tok.value}'",
                                     tok.line, tok.col)
                raise ParseError(f"expected a type, found {tok.value!r}", tok.line, tok.col)
        elif tok.kind == "[":
            count_tok = cur.expect("num")
            cur.expect("word", "x")
            elem = self.parse_type(cur, depth + 1)
            cur.expect("]")
            base = array_of(elem, int(count_tok.value))
        elif tok.kind == "{":
            fields = []
            if not cur.accept("}"):
                while True:
                    fields.append(self.parse_type(cur, depth + 1))
                    if cur.accept("}"):
                        break
                    cur.expect(",")
            base = struct_of(fields)
        elif tok.kind == "lid":
            if cur.peek() is not None and cur.peek().kind == "*":
                while cur.accept("*"):
                    pass
                return PTR
            base = self.resolve_named(tok.value, tok, depth + 1)
        elif tok.kind == "<":
            raise ParseError("vector and packed struct types are not supported",
                             tok.line, tok.col)
        else:
            raise ParseError(f"expected a type, found {tok.value!r}", tok.line, tok.col)
        while cur.accept("*"):
            base = PTR
        if base.depth > MAX_NESTING:    # named types can stack cached depth
            raise _too_deep(tok)
        return base

    # --- constants and operands ------------------------------------------

    def parse_value(self, cur: _Cursor, ty: IrType):
        tok = cur.next()
        if tok.kind == "lid":
            return LocalRef(tok.value, ty)
        if tok.kind == "gid":
            return GlobalRef(tok.value)
        if tok.kind == "num":
            return Const(ty, self._number(tok, ty))
        if tok.kind == "word":
            if tok.value == "true":
                return Const(I1, 1)
            if tok.value == "false":
                return Const(I1, 0)
            if tok.value == "null":
                return Const(PTR, 0)
            if tok.value in ("undef", "poison"):
                return Const(ty, 0.0 if ty.is_float() else 0)
            if tok.value == "zeroinitializer":
                if ty.is_float():
                    return Const(ty, 0.0)
                if ty.is_int() or ty.kind == "ptr":
                    return Const(ty, 0)
                raise ParseError("aggregate operands are not supported here",
                                 tok.line, tok.col)
            if tok.value == "getelementptr":
                return self.parse_const_gep(cur)
        raise ParseError(f"expected a value, found {tok.value!r}", tok.line, tok.col)

    def _number(self, tok: Token, ty: IrType):
        text = tok.value
        if ty.is_float():
            if text.startswith("0x") or text.startswith("-0x"):
                import struct as _s
                bits = int(text.lstrip("-"), 16)
                if bits > 0xFFFFFFFFFFFFFFFF:
                    raise ParseError("bad float literal", tok.line, tok.col)
                val = _s.unpack("<d", bits.to_bytes(8, "little"))[0]
                return -val if text.startswith("-") else val
            return float(text)
        if ty.is_int() or ty.kind == "ptr":
            base = 16 if text.lstrip("-").startswith("0x") else 10
            value = int(text, base)
            bits = 32 if ty.kind == "ptr" else ty.int_bits
            return value & ((1 << bits) - 1)
        raise ParseError(f"literal not valid for type {ty!r}", tok.line, tok.col)

    def parse_const_gep(self, cur: _Cursor) -> ConstGep:
        cur.accept("word", "inbounds")
        cur.expect("(")
        src = self.parse_type(cur)
        cur.expect(",")
        self.parse_type(cur)  # pointer type of the base
        base_tok = cur.expect("gid")
        indices = []
        while cur.accept(","):
            ity = self.parse_type(cur)
            itok = cur.expect("num")
            raw = self._number(itok, ity)
            bits = ity.int_bits
            if raw >= 1 << (bits - 1):
                raw -= 1 << bits
            indices.append(raw)
        cur.expect(")")
        return ConstGep(GlobalRef(base_tok.value), gep_offset(src, indices))

    def _skip_attrs(self, cur: _Cursor):
        """Skip parameter/return attributes: bare words, word(...) groups,
        align N, and metadata."""
        while True:
            tok = cur.peek()
            if tok is None:
                return
            if tok.kind == "md" or tok.kind == "attr":
                cur.next()
                continue
            if tok.kind != "word":
                return
            if tok.value in _VALUE_WORDS or tok.value in SCALARS:
                return
            if tok.value == "align":
                cur.next()
                cur.expect("num")
                continue
            # a generic attribute word, possibly with a parenthesized payload
            cur.next()
            if cur.accept("("):
                depth = 1
                while depth:
                    t = cur.next()
                    if t.kind == "(":
                        depth += 1
                    elif t.kind == ")":
                        depth -= 1
            continue

    # --- top level --------------------------------------------------------

    def parse(self) -> IrModule:
        i = 0
        while i < len(self.lines):
            line = self.lines[i]
            first = line[0]
            if first.kind == "md" or (
                first.kind == "word"
                and (first.value in ("source_filename", "target", "attributes", "module")
                     or first.value.startswith("$"))
            ):
                i += 1
                continue
            if first.kind == "lid":
                self._collect_type_def(line)
                i += 1
                continue
            if first.kind == "word" and first.value == "declare":
                self._parse_declare(line)
                i += 1
                continue
            if first.kind == "gid":
                self._parse_global(line)
                i += 1
                continue
            if first.kind == "word" and first.value == "define":
                i = self._parse_define(i)
                continue
            raise ParseError(f"unexpected top-level token {first.value!r}",
                             first.line, first.col)
        self._finish()
        return self.module

    def _collect_type_def(self, line):
        cur = _Cursor(line)
        name = cur.expect("lid").value
        cur.expect("=")
        cur.expect("word", "type")
        self.type_defs[name] = line[cur.i:]

    def _parse_declare(self, line):
        for tok in line:
            if tok.kind == "gid":
                self.module.declared.add(tok.value)
                return
        raise ParseError("declare without a function name", line[0].line, line[0].col)

    def _parse_global(self, line):
        cur = _Cursor(line)
        name = cur.expect("gid").value
        cur.expect("=")
        is_const = False
        while True:
            tok = cur.peek()
            if tok is None:
                cur.error("global definition without a body")
            if tok.kind == "word" and tok.value in _LINKAGE_WORDS:
                cur.next()
                if tok.value == "constant":
                    is_const = True
                    break
                if tok.value == "global":
                    break
                continue
            if tok.kind == "word" and tok.value in ("thread_local", "addrspace"):
                cur.next()
                if cur.accept("("):
                    while not cur.accept(")"):
                        cur.next()
                continue
            cur.error(f"unexpected token {tok.value!r} in global definition")
        ty = self.parse_type(cur)
        init = None
        tok = cur.peek()
        if tok is not None and tok.kind != ",":
            init = self._parse_init(cur, ty)
        align = 0
        while cur.accept(","):
            tok = cur.peek()
            if tok is None:
                break
            if tok.kind == "word" and tok.value == "align":
                cur.next()
                align = int(cur.expect("num").value)
            else:
                # section, comdat, !annotations: decoration we do not model
                cur.next()
                while cur.peek() is not None and cur.peek().kind not in (",",):
                    cur.next()
        self.module.globals.append(GlobalVar(name, ty, init, is_const, align))

    def _parse_init(self, cur: _Cursor, ty: IrType, depth: int = 0):
        tok = cur.peek()
        if depth > MAX_NESTING:
            raise _too_deep(tok)
        if tok.kind == "cstr":
            cur.next()
            return tok.value
        if tok.kind == "word" and tok.value == "zeroinitializer":
            cur.next()
            return ("zero",)
        if tok.kind == "word" and tok.value in ("undef", "poison"):
            cur.next()
            return ("zero",)
        if ty.kind == "array":
            cur.expect("[")
            items = []
            if not cur.accept("]"):
                while True:
                    ety = self.parse_type(cur)
                    items.append(self._parse_init(cur, ety, depth + 1))
                    if cur.accept("]"):
                        break
                    cur.expect(",")
            return items
        if ty.kind == "struct":
            cur.expect("{")
            items = []
            if not cur.accept("}"):
                while True:
                    fty = self.parse_type(cur)
                    items.append(self._parse_init(cur, fty, depth + 1))
                    if cur.accept("}"):
                        break
                    cur.expect(",")
            return items
        value = self.parse_value(cur, ty)
        if isinstance(value, Const):
            return value.value
        if isinstance(value, (GlobalRef, ConstGep)):
            return value
        cur.error("global initializer must be a constant")

    # --- functions ----------------------------------------------------------

    def _parse_define(self, line_index: int) -> int:
        cur = _Cursor(self.lines[line_index])
        cur.expect("word", "define")
        while True:
            tok = cur.peek()
            if tok is None:
                cur.error("truncated function definition")
            if tok.kind in ("md", "attr"):
                cur.next()
                continue
            if tok.kind == "word" and (tok.value in _LINKAGE_WORDS or tok.value in _CCONV_WORDS):
                cur.next()
                if tok.value == "cc":
                    cur.accept("num")
                continue
            if tok.kind == "word" and tok.value in ("noundef", "signext", "zeroext",
                                                    "inreg", "noalias", "nonnull"):
                cur.next()
                continue
            break
        ret_ty = self.parse_type(cur)
        name_tok = cur.expect("gid")
        if self.module.has_function(name_tok.value):
            raise ParseError(f"duplicate function definition '@{name_tok.value}'",
                             name_tok.line, name_tok.col)
        cur.expect("(")
        params = []
        auto = 0
        if not cur.accept(")"):
            while True:
                if cur.peek() is not None and cur.peek().kind == "dots":
                    cur.error("variadic functions are not supported")
                pty = self.parse_type(cur)
                self._skip_attrs(cur)
                ptok = cur.accept("lid")
                if ptok is not None:
                    pname = ptok.value
                    if pname == str(auto):
                        auto += 1
                else:
                    pname = str(auto)
                    auto += 1
                params.append((pname, pty))
                if cur.accept(")"):
                    break
                cur.expect(",")
        while not cur.at_end():
            tok = cur.next()
            if tok.kind == "{":
                if not cur.at_end():
                    cur.error("code on the same line as '{'")
                return self._parse_body(line_index + 1,
                                        IrFunction(name_tok.value, ret_ty, params),
                                        entry_hint=str(auto))
        cur.error("function definition without a body")

    def _parse_body(self, i: int, func: IrFunction, entry_hint: str) -> int:
        block = None
        labels = set()
        while i < len(self.lines):
            line = self.lines[i]
            first = line[0]
            i += 1
            if first.kind == "}":
                if block is None:
                    raise ParseError("function has no blocks", first.line, first.col)
                _end_block(block, first)
                self._link(func)
                return i
            cur = _Cursor(line)
            label = None
            if len(line) >= 2 and first.kind in ("word", "num") and line[1].kind == ":":
                if block is not None:
                    _end_block(block, first)
                label = first.value
                cur.i = 2
            elif block is None:
                label = entry_hint
                if any(l[0].kind in ("word", "num") and len(l) >= 2 and l[1].kind == ":"
                       and l[0].value == label for l in self.lines[i:]):
                    label = label + ".entry"
            if label is not None:
                if label in labels:
                    raise ParseError(f"duplicate block label '%{label}'", first.line, first.col)
                labels.add(label)
                block = IrBlock(label=label)
                func.blocks.append(block)
            if not cur.at_end():
                self._parse_instruction(cur, block)
        raise ParseError("unterminated function body (missing '}')",
                         self.lines[-1][0].line if self.lines else None, 0)

    def _link(self, func: IrFunction):
        """Derive the control-flow graph, check every edge against it, and
        add the function to the module."""
        link_function(func)
        for b in func.blocks:
            for ins in b.instructions[:b.phi_count]:
                seen = sorted(lbl for _, lbl in ins.incoming)
                if seen != sorted(b.preds):
                    raise ParseError(f"phi predecessors {seen} do not match block "
                                     f"predecessors {sorted(b.preds)}", ins.line)
            term = b.instructions[-1]
            for lbl in term.labels + [lbl for _, lbl in term.cases]:
                if lbl not in func.block_map:
                    raise ParseError(f"branch to unknown label '%{lbl}'", term.line)
        self.module.functions.append(func)

    # --- instructions ---------------------------------------------------------

    def _parse_instruction(self, cur: _Cursor, block: IrBlock):
        """Parse one instruction and append it to `block`."""
        first = cur.peek()
        result = None
        if first.kind == "lid":
            cur.next()
            cur.expect("=")
            result = first.value
        tok = cur.next()
        if tok.kind != "word":
            raise ParseError(f"expected an opcode, found {tok.value!r}", tok.line, tok.col)
        opcode = tok.value
        if opcode in ("tail", "musttail", "notail"):
            tok = cur.expect("word", "call")
            opcode = "call"
        if opcode not in SUPPORTED_OPCODES:
            if opcode in KNOWN_LLVM_OPCODES:
                raise UnsupportedOpcodeError(opcode, tok.line)
            raise ParseError(f"unknown opcode {opcode!r}", tok.line, tok.col)

        ins = IrInstruction(opcode=opcode, result=result, line=tok.line)
        if opcode in _CASTS:
            self._ins_cast(cur, ins)
        elif opcode in _PREDICATES:
            self._ins_cmp(cur, ins)
        else:
            getattr(self, "_ins_" + opcode, self._ins_binop)(cur, ins)
        self._finish_statement(cur, ins)
        if ins.opcode in TERMINATORS or (ins.opcode == "call" and ins.type is VOID):
            if ins.result is not None:
                raise ParseError(f"'{ins.opcode}' cannot produce a result", tok.line, tok.col)
        elif ins.opcode == "store":
            if ins.result is not None:
                raise ParseError("'store' cannot produce a result", tok.line, tok.col)
        elif ins.result is None:
            raise ParseError(f"'{ins.opcode}' must assign its result", tok.line, tok.col)
        if block.instructions:
            prev = block.instructions[-1].opcode
            if prev in TERMINATORS:
                raise ParseError(f"'{opcode}' after the terminator of block '%{block.label}'",
                                 first.line, first.col)
            if opcode == "phi" and prev != "phi":
                raise ParseError("phi after a non-phi instruction", first.line, first.col)
        block.instructions.append(ins)

    def _finish_statement(self, cur: _Cursor, ins=None):
        while not cur.at_end():
            tok = cur.peek()
            if tok.kind in ("md", "attr"):
                cur.next()
                continue
            if tok.kind == ",":
                nxt = cur.peek(1)
                if nxt is not None and nxt.kind == "word" and nxt.value == "align":
                    cur.next()
                    cur.next()
                    amount = cur.expect("num")
                    if ins is not None:
                        ins.align = int(amount.value)
                    continue
                if nxt is not None and nxt.kind == "md":
                    cur.next()
                    continue
            cur.error(f"unexpected trailing token {tok.value!r}")

    def _skip_flags(self, cur: _Cursor):
        while True:
            tok = cur.peek()
            if tok is not None and tok.kind == "word" and tok.value in _FLAG_WORDS:
                cur.next()
                continue
            return

    def _ins_binop(self, cur: _Cursor, ins: IrInstruction):
        self._skip_flags(cur)
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
        self._skip_flags(cur)
        ty = self.parse_type(cur)
        if not ty.is_float():
            cur.error("'fneg' needs a float type")
        ins.type = ty
        ins.operands = [self.parse_value(cur, ty)]

    def _ins_cmp(self, cur, ins):
        self._skip_flags(cur)
        pred = cur.expect("word")
        if pred.value not in _PREDICATES[ins.opcode]:
            raise ParseError(f"unknown {ins.opcode} predicate {pred.value!r}",
                             pred.line, pred.col)
        ty = self.parse_type(cur)
        if ins.opcode == "fcmp" and not ty.is_float():
            cur.error("'fcmp' needs a float type")
        a = self.parse_value(cur, ty)
        cur.expect(",")
        b = self.parse_value(cur, ty)
        ins.pred = pred.value
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
        ins.type = dst
        ins.source_type = ty
        ins.operands = [val]

    def _ins_alloca(self, cur, ins):
        cur.accept("word", "inalloca")
        ty = self.parse_type(cur)
        count = Const(I32, 1)
        align = 0
        while cur.peek() is not None and cur.peek().kind == ",":
            nxt = cur.peek(1)
            if nxt is not None and nxt.kind == "word" and nxt.value == "align":
                cur.next()
                cur.next()
                align = int(cur.expect("num").value)
                continue
            if nxt is not None and (nxt.kind in ("md",) or nxt.kind == "attr"):
                break
            cur.next()
            cty = self.parse_type(cur)
            count = self.parse_value(cur, cty)
        ins.type = PTR
        ins.source_type = ty
        ins.operands = [count]
        ins.align = align

    def _ins_load(self, cur, ins):
        self._skip_flags(cur)
        if cur.peek() is not None and cur.peek().kind == "word" and cur.peek().value == "atomic":
            cur.error("atomic loads are not supported")
        ty = self.parse_type(cur)
        cur.expect(",")
        pty = self.parse_type(cur)
        if pty.kind != "ptr":
            cur.error("'load' needs a pointer operand")
        ptr = self.parse_value(cur, PTR)
        ins.type = ty
        ins.operands = [ptr]

    def _ins_store(self, cur, ins):
        self._skip_flags(cur)
        if cur.peek() is not None and cur.peek().kind == "word" and cur.peek().value == "atomic":
            cur.error("atomic stores are not supported")
        ty = self.parse_type(cur)
        val = self.parse_value(cur, ty)
        cur.expect(",")
        pty = self.parse_type(cur)
        if pty.kind != "ptr":
            cur.error("'store' needs a pointer operand")
        ptr = self.parse_value(cur, PTR)
        ins.type = ty
        ins.operands = [val, ptr]

    def _ins_getelementptr(self, cur, ins):
        self._skip_flags(cur)
        src = self.parse_type(cur)
        cur.expect(",")
        pty = self.parse_type(cur)
        if pty.kind != "ptr":
            cur.error("'getelementptr' needs a pointer operand")
        base = self.parse_value(cur, PTR)
        operands = [base]
        while cur.peek() is not None and cur.peek().kind == ",":
            nxt = cur.peek(1)
            if nxt is None or not (nxt.kind in ("[", "{", "lid")
                                   or (nxt.kind == "word" and nxt.value in SCALARS)
                                   or (nxt.kind == "word" and re.fullmatch(r"i\d+", nxt.value))):
                break
            cur.next()
            ity = self.parse_type(cur)
            if not ity.is_int():
                cur.error("getelementptr indices must be integers")
            operands.append(self.parse_value(cur, ity))
        ins.type = PTR
        ins.source_type = src
        ins.operands = operands

    def _ins_phi(self, cur, ins):
        self._skip_flags(cur)
        ty = self.parse_type(cur)
        ins.type = ty
        while True:
            cur.expect("[")
            val = self.parse_value(cur, ty)
            cur.expect(",")
            lbl = cur.expect("lid")
            cur.expect("]")
            ins.incoming.append((val, lbl.value))
            if not cur.accept(","):
                break

    def _ins_call(self, cur, ins):
        self._skip_flags(cur)
        while True:
            tok = cur.peek()
            if tok is not None and tok.kind == "word" and (
                tok.value in _CCONV_WORDS
                or tok.value in ("noundef", "signext", "zeroext", "inreg", "nonnull", "noalias")
            ):
                cur.next()
                if tok.value == "cc":
                    cur.accept("num")
                continue
            break
        rty = self.parse_type(cur)
        if cur.peek() is not None and cur.peek().kind == "(":
            # explicit function-type suffix, e.g. `call i32 (ptr, ...) @f(...)`
            depth = 0
            while True:
                t = cur.next()
                if t.kind == "(":
                    depth += 1
                elif t.kind == ")":
                    depth -= 1
                    if depth == 0:
                        break
        callee_tok = cur.peek()
        if callee_tok is not None and callee_tok.kind == "lid":
            cur.error("indirect calls are not supported")
        callee = cur.expect("gid").value
        cur.expect("(")
        args = []
        if not cur.accept(")"):
            while True:
                aty = self.parse_type(cur)
                self._skip_attrs(cur)
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
            ins.labels = [cur.expect("lid").value]
            return
        ty = self.parse_type(cur)
        if ty is not I1:
            cur.error("conditional branch needs an i1 condition")
        cond = self.parse_value(cur, ty)
        cur.expect(",")
        cur.expect("word", "label")
        t = cur.expect("lid").value
        cur.expect(",")
        cur.expect("word", "label")
        f = cur.expect("lid").value
        ins.operands = [cond]
        ins.labels = [t, f]

    def _ins_switch(self, cur, ins):
        ty = self.parse_type(cur)
        if not ty.is_int():
            cur.error("'switch' needs an integer operand")
        val = self.parse_value(cur, ty)
        cur.expect(",")
        cur.expect("word", "label")
        default = cur.expect("lid").value
        cur.expect("[")
        cases = []
        while not cur.accept("]"):
            cty = self.parse_type(cur)
            ctok = cur.expect("num")
            cval = self._number(ctok, cty)
            cur.expect(",")
            cur.expect("word", "label")
            cases.append((cval, cur.expect("lid").value))
        ins.type = ty
        ins.operands = [val]
        ins.labels = [default]
        ins.cases = cases

    def _ins_ret(self, cur, ins):
        tok = cur.peek()
        if tok is not None and tok.kind == "word" and tok.value == "void":
            cur.next()
            ins.type = VOID
            return
        ty = self.parse_type(cur)
        ins.type = ty
        ins.operands = [self.parse_value(cur, ty)]

    # --- finishing -------------------------------------------------------

    def _finish(self):
        """Number blocks and instructions in source order and resolve every
        callee, which may be defined after its first call."""
        block_id = 0
        inst_id = 0
        for f in self.module.functions:
            for b in f.blocks:
                b.static_id = block_id
                block_id += 1
                for ins in b.instructions:
                    ins.static_id = inst_id
                    inst_id += 1
                    if ins.opcode == "call" and not (self.module.has_function(ins.callee)
                                                     or is_recognized_callee(ins.callee)):
                        raise UnresolvedReferenceError(ins.callee, "call target")


def parse_module(text: str, source_name: str = "<string>") -> IrModule:
    """Parse IR text into a validated IrModule."""
    return _Parser(text, source_name).parse()


def parse_file(path) -> IrModule:
    from pathlib import Path

    p = Path(path)
    return parse_module(p.read_text(), source_name=p.name)
