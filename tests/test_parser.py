import re

import pytest
from hypothesis import given, settings, strategies as st

from irtime import Interpreter, irparser, parse_module
from irtime.errors import ParseError, UnsupportedOpcodeError, UnresolvedReferenceError
from irtime.irmodel import Const, GlobalRef, ConstGep, LocalRef
from irtime.irtypes import I32

from conftest import EXAMPLE_A, EXAMPLE_B, lli, llvm_as, needs_lli, needs_llvm_as


def test_minimal_main():
    m = parse_module(EXAMPLE_A)
    f = m.function("main")
    assert f.return_type.kind == "i32"
    assert [b.label for b in f.blocks] == ["entry"]
    assert f.blocks[0].instructions[0].opcode == "ret"


def test_loop_structure():
    m = parse_module(EXAMPLE_B)
    f = m.function("main")
    assert [b.label for b in f.blocks] == ["entry", "loop", "exit"]
    loop = f.block_map["loop"]
    assert loop.phi_count == 2
    assert sorted(loop.preds) == ["entry", "loop"]
    assert sorted(f.block_map["exit"].preds) == ["loop"]
    # phi incoming maps are keyed by predecessor label
    phi = loop.instructions[0]
    assert set(phi.incoming_map) == {"entry", "loop"}


def test_static_ids_are_dense():
    m = parse_module(EXAMPLE_B)
    ids = [ins.static_id
           for f in m.functions for b in f.blocks for ins in b.instructions]
    assert ids == list(range(len(ids)))


def test_instruction_count():
    m = parse_module(EXAMPLE_B)
    assert m.instruction_count() == 8


def test_unnamed_blocks_and_params():
    # clang frequently emits pure numeric value names; the entry label is
    # implicit and numbered after the unnamed parameters
    src = """
define i32 @f(i32 %0, i32 %1) {
  %3 = add i32 %0, %1
  br label %4

4:
  ret i32 %3
}

define i32 @main() {
entry:
  %r = call i32 @f(i32 2, i32 3)
  ret i32 %r
}
"""
    m = parse_module(src)
    f = m.function("f")
    assert [b.label for b in f.blocks] == ["2", "4"]
    assert [p[0] for p in f.params] == ["0", "1"]


def test_the_implicit_entry_label_looks_only_at_its_own_function():
    # LLVM numbers the unnamed entry block itself, so a later `0:` in the
    # same function repeats its label and is rejected; one in another
    # function is not seen
    f = """
define i32 @f() {
  ret i32 1
}
"""
    main = """
define i32 @main() {
  br label %0

0:
  %r = call i32 @f()
  ret i32 %r
}
"""
    assert [b.label for b in parse_module(f).function("f").blocks] == ["0"]
    with pytest.raises(ParseError, match=r"^9:1: duplicate block label '%0'$"):
        parse_module(f + main)


def test_global_parsing():
    src = """
@counter = global i32 42
@table = constant [3 x i32] [i32 1, i32 2, i32 3]
@msg = private unnamed_addr constant [5 x i8] c"hi\\00\\01x", align 1
@zero = global [8 x i32] zeroinitializer

define i32 @main() {
entry:
  %v = load i32, ptr @counter
  ret i32 %v
}
"""
    m = parse_module(src)
    g = m.global_var("counter")
    assert g.init == 42
    assert not g.is_const
    t = m.global_var("table")
    assert t.is_const
    assert t.init == [1, 2, 3]
    msg = m.global_var("msg")
    assert msg.init == b"hi\x00\x01x"
    assert msg.align == 1
    assert m.global_var("zero").init == ("zero",)


def test_typed_pointer_syntax():
    # older IR spells pointers as T*; both spellings collapse to one kind
    src = """
@g = global i32 7

define i32 @main() {
entry:
  %p = getelementptr i32, i32* @g, i32 0
  %v = load i32, i32* %p
  ret i32 %v
}
"""
    m = parse_module(src)
    ins = m.function("main").blocks[0].instructions[0]
    assert ins.opcode == "getelementptr"


def test_named_struct_types():
    src = """
%pair = type { i32, i64 }
%node = type { i32, %node* }

@p = global %pair { i32 1, i64 2 }

define i32 @main() {
entry:
  %f = getelementptr %pair, ptr @p, i32 0, i32 1
  %v = load i64, ptr %f
  %t = icmp eq i64 %v, 2
  %z = zext i1 %t to i32
  ret i32 %z
}
"""
    m = parse_module(src)
    p = m.global_var("p")
    assert p.type.kind == "struct"
    assert p.type.fields[1].kind == "i64"
    assert p.init == [1, 2]


@pytest.mark.parametrize("text, want", [
    ("%T = type { i32 } garbage\n@g = global %T zeroinitializer\n" + EXAMPLE_A,
     "1:19: unexpected trailing token 'garbage'"),
    ("%T = type opaque junk\n@g = external global %T\n" + EXAMPLE_A,
     "1:18: unexpected trailing token 'junk'"),
    # the end of a definition has a place too: its last token
    ("%T = type\n@g = external global %T\n" + EXAMPLE_A, "1:6: unexpected end of statement"),
])
def test_a_used_type_definition_ends_where_its_type_ends(text, want):
    with pytest.raises(ParseError) as info:
        parse_module(text)
    assert str(info.value) == want


@pytest.mark.parametrize("linkage, col", [("external", 26), ("extern_weak", 29)])
def test_an_external_declaration_takes_no_initializer(linkage, col):
    # llvm-as 14 places its "expected top-level entity" at the same column
    with pytest.raises(ParseError) as info:
        parse_module(f"@g = {linkage} global i32 5\n" + EXAMPLE_A)
    assert str(info.value) == f"1:{col}: an {linkage} global takes no initializer"


@pytest.mark.parametrize("text, where", [
    ("@g = internal internal global i32 5", "1:15: repeated 'internal'"),
    ("@g = dso_local dso_local global i32 5", "1:16: repeated 'dso_local'"),
    ("define i32 @main() {\nentry:\n  %a = add nuw nsw nuw i32 1, 2\n  ret i32 0\n}",
     "3:20: repeated 'nuw'"),
    ("define i32 @main() {\nentry:\n  %a = lshr exact exact i32 4, 1\n  ret i32 0\n}",
     "3:19: repeated 'exact'"),
])
def test_a_repeated_flag_is_rejected_at_the_repeat(text, where):
    # llvm-as 14 places its "expected type" or "expected 'global' or
    # 'constant'" at the same column
    with pytest.raises(ParseError) as info:
        parse_module(text + "\n")
    assert str(info.value) == where


def _operand_main(body, head=""):
    return f"{head}define i32 @main() {{\nentry:\n{body}\n}}\n"


# name -> (module, what main returns, or the ParseError of a module that
# llvm-as rejects too); undef and poison are read where their value cannot
# change the result
OPERAND_FORMS = {
    "true_condition": (_operand_main(
        "  br i1 true, label %a, label %b\na:\n  ret i32 3\nb:\n  ret i32 4"), 3),
    "undef_operand": (_operand_main("  %u = and i32 undef, 0\n  %r = add i32 %u, 9\n"
                                    "  ret i32 %r"), 9),
    "poison_operand": (_operand_main("  %p = add i32 poison, 1\n  ret i32 11"), 11),
    "float_undef_operand": (_operand_main("  %u = fmul double undef, 0.0\n  ret i32 5"), 5),
    "integer_zeroinitializer_operand": (_operand_main(
        "  %z = add i32 zeroinitializer, 3\n  ret i32 %z"), 3),
    "float_zeroinitializer_operand": (_operand_main(
        "  %z = fadd double zeroinitializer, 2.0\n  %r = fptosi double %z to i32\n"
        "  ret i32 %r"), 2),
    "aggregate_zeroinitializer_operand": (_operand_main(
        "  %a = add [2 x i32] zeroinitializer, zeroinitializer\n  ret i32 0"),
        "3:22: aggregate operands are not supported here"),
    "typed_pointer_to_a_named_type": (_operand_main(
        "  %p = load ptr, ptr @g\n  %c = icmp eq ptr %p, null\n  %r = zext i1 %c to i32\n"
        "  ret i32 %r", "%T = type { i32 }\n@g = global %T* null\n"), 1),
}


@pytest.mark.parametrize("name", OPERAND_FORMS)
def test_operand_forms(name):
    text, want = OPERAND_FORMS[name]
    if isinstance(want, str):
        with pytest.raises(ParseError) as info:
            parse_module(text)
        assert str(info.value) == want
    else:
        assert Interpreter(parse_module(text)).execute() == want


@needs_llvm_as
@pytest.mark.parametrize("name", OPERAND_FORMS)
def test_llvm_as_decides_each_operand_form_alike(name):
    text, want = OPERAND_FORMS[name]
    assert (llvm_as(text) is None) == (not isinstance(want, str))


@needs_lli
@pytest.mark.parametrize("name", [n for n, (_, want) in OPERAND_FORMS.items()
                                  if not isinstance(want, str)])
def test_lli_returns_what_each_operand_form_returns(name):
    text, want = OPERAND_FORMS[name]
    assert lli(text) == want % 256


def test_constexpr_gep_initializer_and_operand():
    src = """
@arr = global [4 x i32] [i32 10, i32 20, i32 30, i32 40]
@third = global ptr getelementptr ([4 x i32], ptr @arr, i32 0, i32 2)

define i32 @main() {
entry:
  %v = load i32, ptr getelementptr ([4 x i32], ptr @arr, i32 0, i32 1)
  ret i32 %v
}
"""
    m = parse_module(src)
    init = m.global_var("third").init
    assert isinstance(init, ConstGep)
    assert init.base.name == "arr"
    assert init.offset == 8
    load = m.function("main").blocks[0].instructions[0]
    assert isinstance(load.operands[0], ConstGep)
    assert load.operands[0].offset == 4


def test_metadata_and_attributes_are_skipped():
    src = """
source_filename = "prog.c"
target datalayout = "e-m:e-p270:32:32"
target triple = "x86_64-unknown-linux-gnu"

define dso_local i32 @main() #0 !dbg !10 {
entry:
  %a = alloca i32, align 4
  store i32 5, ptr %a, align 4, !tbaa !3
  %v = load i32, ptr %a, align 4, !dbg !12
  ret i32 %v, !dbg !13
}

attributes #0 = { noinline nounwind optnone uwtable }
!llvm.module.flags = !{!0}
!0 = !{i32 1, !"wchar_size", i32 4}
!3 = !{!4, !4, i64 0}
!4 = !{!"int", !5, i64 0}
"""
    m = parse_module(src)
    ops = [i.opcode for i in m.function("main").blocks[0].instructions]
    assert ops == ["alloca", "store", "load", "ret"]
    assert m.function("main").blocks[0].instructions[1].align == 4


def test_multiline_switch():
    src = """
define i32 @main() {
entry:
  switch i32 2, label %d [
    i32 0, label %a
    i32 2, label %b
  ]

a:
  ret i32 10

b:
  ret i32 20

d:
  ret i32 30
}
"""
    m = parse_module(src)
    sw = m.function("main").blocks[0].instructions[0]
    assert sw.opcode == "switch"
    assert sw.labels == ["d"]
    assert sw.cases == [(0, "a"), (2, "b")]


def test_call_with_function_type_suffix():
    src = """
define i32 @f(i32 %x) {
entry:
  ret i32 %x
}

define i32 @main() {
entry:
  %a = call i32 (i32) @f(i32 5)
  %b = tail call fastcc i32 @f(i32 noundef %a) #0
  ret i32 %b
}

attributes #0 = { nounwind }
"""
    m = parse_module(src)
    calls = m.function("main").blocks[0].instructions[:2]
    assert [(c.opcode, c.callee, c.type) for c in calls] == [("call", "f", I32)] * 2
    assert calls[1].operands == [LocalRef("a", I32)]


def test_declare_needs_a_function_name():
    with pytest.raises(ParseError, match="declare without a function name") as info:
        parse_module("\ndeclare void (ptr)\n" + EXAMPLE_A)
    assert info.value.line == 2

def test_unsupported_opcode_is_distinguished():
    src = """
define i32 @main() {
entry:
  %v = select i1 true, i32 1, i32 2
  ret i32 %v
}
"""
    with pytest.raises(UnsupportedOpcodeError) as exc:
        parse_module(src)
    assert "select" in str(exc.value)


def test_unknown_word_is_parse_error():
    src = """
define i32 @main() {
entry:
  %v = frobnicate i32 1, i32 2
  ret i32 %v
}
"""
    with pytest.raises(ParseError):
        parse_module(src)


def test_branch_to_unknown_label():
    src = """
define i32 @main() {
entry:
  br label %nowhere
}
"""
    with pytest.raises(ParseError):
        parse_module(src)


def test_phi_predecessor_mismatch():
    src = """
define i32 @main() {
entry:
  br label %next

next:
  %x = phi i32 [ 0, %entry ], [ 1, %bogus ]
  ret i32 %x

bogus:
  ret i32 0
}
"""
    with pytest.raises(ParseError):
        parse_module(src)


def test_call_to_undefined_function():
    src = """
define i32 @main() {
entry:
  %r = call i32 @missing(i32 1)
  ret i32 %r
}
"""
    with pytest.raises(UnresolvedReferenceError, match=r"'missing' \(line 4\)") as info:
        parse_module(src)
    assert info.value.line == 4


def test_block_without_terminator():
    src = """
define i32 @main() {
entry:
  %v = add i32 1, 2

next:
  ret i32 %v
}
"""
    with pytest.raises(ParseError):
        parse_module(src)


def test_vector_types_rejected():
    src = """
define i32 @main() {
entry:
  %v = add <4 x i32> zeroinitializer, zeroinitializer
  ret i32 0
}
"""
    with pytest.raises(ParseError):
        parse_module(src)


def test_nesting_depth_is_bounded():
    main = "define i32 @main() {\nentry:\n  ret i32 0\n}\n"
    deep = "[1 x " * 3000 + "i32" + "]" * 3000
    deep_init = "[1 x i32] " + "[[1 x i32] " * 3000 + "]" * 3000
    chain = "".join(f"%t{i + 1} = type [1 x %t{i}]\n" for i in range(300))
    cached_chain = "%t0 = type i32\n" + chain + "".join(
        f"@g{i} = global %t{i} zeroinitializer\n" for i in range(301))
    # resolving a named type is one more level of parser recursion, so the
    # uncached chain stops at %t171 (line 173); resolved one by one, the
    # chain stops where its type first nests 257 levels, at %t257 (line 258)
    for text, line in ((f"@g = global {deep} zeroinitializer\n", 1),
                       (f"@g = global {deep_init}\n", 1),
                       ("%t0 = type i32\n" + chain + "@g = global %t300 zeroinitializer\n", 173),
                       (cached_chain, 258)):
        with pytest.raises(ParseError) as info:
            parse_module(text + main)
        assert info.value.line == line
        assert "nested more than 256 levels" in str(info.value)
    ok = "[1 x " * 256 + "i32" + "]" * 256
    assert parse_module(f"@g = global {ok} zeroinitializer\n" + main).globals[0].type.size() == 4


def test_negative_and_hex_constants():
    src = """
define i32 @main() {
entry:
  %a = add i32 -5, 3
  %b = and i32 %a, 255
  ret i32 %b
}
"""
    m = parse_module(src)
    first = m.function("main").blocks[0].instructions[0]
    assert isinstance(first.operands[0], Const)
    # -5 is stored in two's complement at 32 bits
    assert first.operands[0].value == (1 << 32) - 5


def test_float_literals():
    src = """
define double @f() {
entry:
  %x = fadd double 1.5, 2.5
  %y = fmul double %x, -0.25
  ret double %y
}

define i32 @main() {
entry:
  %v = call double @f()
  %r = fptosi double %v to i32
  ret i32 %r
}
"""
    m = parse_module(src)
    fadd = m.function("f").blocks[0].instructions[0]
    assert fadd.operands[0].value == 1.5


def test_quoted_identifiers():
    src = """
@"weird name" = global i32 9

define i32 @main() {
entry:
  %v = load i32, ptr @"weird name"
  ret i32 %v
}
"""
    m = parse_module(src)
    assert m.global_var("weird name").init == 9


# The lexer's contract: text -> the statements the parser reads, each token
# as (kind, value, line, col) with its column placed by _column, or the exact
# message of the ParseError.  A column counts characters from 1; a tab and a
# multi-byte character count one.
LEXER_CONTRACT = {
    "c_string_against_a_word_ending_in_c": ('abc"x" c"\\41\\\\"', [[
        ("word", "abc", 1, 1), ("str", "x", 1, 4), ("cstr", b"A\\", 1, 8)]]),
    "dots_against_a_word_starting_with_a_dot": ("....a .b ..", [[
        ("dots", "...", 1, 1), ("word", ".a", 1, 4), ("word", ".b", 1, 7),
        ("word", "..", 1, 10)]]),
    "dots_against_a_word_of_three_characters": (".ab ...", [[
        ("word", ".ab", 1, 1), ("dots", "...", 1, 5)]]),
    "negative_numbers": ("-1 -0x1F 1.5e-3 1e", [[
        ("num", "-1", 1, 1), ("num", "-0x1F", 1, 4), ("num", "1.5e-3", 1, 10),
        ("num", "1", 1, 17), ("word", "e", 1, 18)]]),
    "hex_prefix_without_digits": ("0xZZ", [[("num", "0", 1, 1), ("word", "xZZ", 1, 2)]]),
    "newline_inside_brackets": ("f(a,\n  b) [1,\n\t2]\n\ng ; note\n", [
        [("word", "f", 1, 1), ("(", "(", 1, 2), ("word", "a", 1, 3), (",", ",", 1, 4),
         ("word", "b", 2, 3), (")", ")", 2, 4), ("[", "[", 2, 6), ("num", "1", 2, 7),
         (",", ",", 2, 8), ("num", "2", 3, 2), ("]", "]", 3, 3)],
        [("word", "g", 5, 1)]]),
    "names_bare_and_quoted": ('@a.1 %-2 @"x y" %"\\22€" !dbg !{ #7', [[
        ("gid", "a.1", 1, 1), ("lid", "-2", 1, 6), ("gid", "x y", 1, 10),
        ("lid", '"\xe2\x82\xac', 1, 17), ("md", "dbg", 1, 25), ("md", "", 1, 30),
        ("{", "{", 1, 31), ("attr", "7", 1, 33)]]),
    "dangling_at": ("x\n  @ = global", "2:3: dangling '@'"),
    "dangling_percent": ("a %", "1:3: dangling '%'"),
    "dangling_hash": ("attributes #x", "1:12: dangling '#'"),
    "bad_string_escape": ('@s = c"ab\\q"', "1:6: bad string escape"),
    "escaped_quote": ('x c"\\""', "1:3: bad string escape"),
    "trailing_backslash": ('"ab\\', "1:1: bad string escape"),
    "short_hex_escape": ('"\\4"', "1:1: bad string escape"),
    "escape_checked_before_the_end": ('\t@"ab\\zz', "1:2: bad string escape"),
    "unterminated_string_at_the_end": ('x "ab', "1:3: unterminated string"),
    "unterminated_string_at_a_newline": ('x\n  %"ab\n"', "2:3: unterminated string"),
    "unexpected_character_after_a_tab": ("\t?", "1:2: unexpected character '?'"),
    "unexpected_character_after_a_multibyte_one": ('@"€"~', "1:5: unexpected character '~'"),
    "lone_minus": ("- 1", "1:1: unexpected character '-'"),
    "lone_surrogate_in_a_string": ('x c"a\ud800', "1:3: unexpected character '\\ud800'"),
    "lone_surrogate_outside_a_string": ("a \ud800", "1:3: unexpected character '\\ud800'"),
    "first_fault_wins": ("?\n@", "1:1: unexpected character '?'"),
}


@pytest.mark.parametrize("name", sorted(LEXER_CONTRACT))
def test_lexer_contract(name):
    text, want = LEXER_CONTRACT[name]
    if isinstance(want, str):
        with pytest.raises(ParseError) as info:
            parse_module(text)
        assert str(info.value) == want
    else:
        lines = irparser._statements(text)
        assert all(toks[-1] == ("end", "", *toks[-2][2:]) for toks in lines)
        assert [[(kind, value, line, irparser._column(text, line, nth))
                 for kind, value, line, nth in toks[:-1]] for toks in lines] == want


# Pieces that start, end or change a token, for texts that reach every
# row of the token table and the first-character checks around it.
_LEX_PIECES = [
    " ", "\t", "\r", "\n", ";c", "c", "ca", 'c"', '"', "\\", "\\41", "\\\\", "@", "%",
    "!", "#", "#7", ".", "..", "...", ".a", "-", "-1", "0x1F", "1.5e-3", "9", "x", "$_", "(", ")",
    "[", "]", "{", "}", "<", ">", ",", "=", "*", ":", "?", "~", "\u20ac", "\ud800",
]


# the lexer's token table as a scan with a group per kind: the reference
# that the lexer's first-character dispatch is checked against
_NAMED_RE = re.compile(irparser._BLANKS + "(?:" + "|".join(
    f"(?P<{kind}>{pattern})" for kind, pattern in irparser._TOKENS) + ")")


def _named_scan(text):
    """The (kind, value, line) of each token of `text` as the named-group
    scan splits it, with the lexer's rules for values: a punctuation mark is
    its own kind, a sigil is dropped and a string is unquoted.  Returns the
    tokens, and the message and line:col of the first fault or None."""
    out, line, line_start = [], 1, 0
    for m in _NAMED_RE.finditer(text):
        kind, raw = m.lastgroup, m.group(m.lastgroup)
        place = (line, m.start(kind) - line_start + 1)
        if kind == "nl":
            line, line_start = line + 1, m.end()
            continue
        if kind == "comment":
            continue
        if kind == "bad":
            return out, (f"unexpected character {raw!r}", place)
        if kind == "dangling":
            return out, (f"dangling '{raw}'", place)
        value = raw
        try:
            if kind == "punct":
                kind = raw
            elif kind == "cstr":
                value = irparser._unquote(raw[1:], None)
            elif kind == "str":
                value = irparser._unquote(raw, None).decode("latin-1")
            elif kind in ("lid", "gid", "md", "attr"):
                value = raw[1:]
                if value[:1] == '"':
                    value = irparser._unquote(value, None).decode("latin-1")
        except irparser._TokenFault as fault:
            return out, (fault.message, place)
        out.append((kind, value, line))
    return out, None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_LEX_PIECES), max_size=40).map("".join))
def test_fast_lexer_matches_the_named_group_scan(text):
    want, fault = _named_scan(text)
    try:
        lines = irparser._statements(text)
    except irparser._TokenFault as got:
        assert fault is not None, got.message
        _, _, line, nth = got.tok
        assert (got.message, (line, irparser._column(text, line, nth))) == fault
        return
    assert fault is None
    assert [(kind, value, line) for toks in lines for kind, value, line, _ in toks[:-1]] == want


_TWO_CASES = """
define i32 @main() {
entry:
  switch i32 2, label %d [
    i32 2, label %a
    i32 2, label %b
  ]
a:
  ret i32 10
b:
  ret i32 20
d:
  ret i32 0
}
"""

# A name or a case value given twice is rejected at the second one, as LLVM
# rejects it.
SECOND_DEFINITIONS = {
    "global": ("@g = global i32 1\n@g = global i32 7\n" + EXAMPLE_A,
               "2:1: duplicate global definition '@g'"),
    "global_after_a_function": (EXAMPLE_A + "@main = global i32 0\n",
                                "6:1: global '@main' has the name of a function"),
    "function_after_a_global": ("@main = global i32 0\n" + EXAMPLE_A,
                                "3:12: function '@main' has the name of a global"),
    "switch_case": (_TWO_CASES, "6:9: duplicate 'switch' case value 2"),
    "switch_case_of_another_spelling": (_TWO_CASES.replace("i32 2, label %b", "i32 0x2, label %b"),
                                        "6:9: duplicate 'switch' case value 0x2"),
}


@pytest.mark.parametrize("name", sorted(SECOND_DEFINITIONS))
def test_second_definition_is_rejected_where_it_stands(name):
    text, want = SECOND_DEFINITIONS[name]
    with pytest.raises(ParseError) as info:
        parse_module(text)
    assert str(info.value) == want


@pytest.mark.parametrize("case", ["i8 1", "double 1.0"])
def test_switch_case_of_another_type_is_rejected_where_it_stands(case):
    # LLVM rejects both; the first wrapped 257 to compare as 1
    with pytest.raises(ParseError) as info:
        parse_module(_TWO_CASES.replace("i32 2, label %b", f"{case}, label %b"))
    assert str(info.value) == "6:5: 'switch' case is not of the operand's type i32"


def test_uses_that_their_definitions_dominate_are_accepted():
    # a parameter, a phi's operand read at the end of the block it comes
    # from, the same phi's own result on a self-loop, a definition in the
    # entry read in every block; and, as in LLVM, anything in a block the
    # entry does not reach
    src = """
define i32 @main(i32 %n) {
entry:
  %k = add i32 %n, 1
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %i.next, %loop ]
  %acc = phi i32 [ %k, %entry ], [ %acc.next, %loop ]
  %i.next = add i32 %i, 1
  %acc.next = add i32 %acc, %k
  %go = icmp ult i32 %i.next, %n
  br i1 %go, label %loop, label %exit
dead:
  %y = add i32 %z, %i.next
  %z = add i32 %y, %acc.next
  br label %exit
exit:
  %r = phi i32 [ %acc.next, %loop ], [ %z, %dead ]
  ret i32 %r
}
"""
    f = parse_module(src).function("main")
    assert f.idom == {"entry": None, "loop": "entry", "exit": "loop"}
    assert f.dominates("loop", "exit") and not f.dominates("exit", "loop")
    assert f.dominates("exit", "dead") and not f.dominates("dead", "exit")


def _reached(succs, avoid):
    """The blocks that the entry, block 0, reaches without passing `avoid`."""
    seen, todo = set(), [0]
    while todo:
        b = todo.pop()
        if b != avoid and b not in seen:
            seen.add(b)
            todo += succs[b]
    return seen


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(
    st.lists(st.integers(1, max(n - 1, 1)), max_size=2 if n > 1 else 0), min_size=n, max_size=n)))
def test_dominators_match_their_definition(succs):
    # a dominates b when b is not reached once a is taken away; every block
    # dominates one the entry does not reach
    lines = ["define i32 @main(i1 %c) {"]
    for b, targets in enumerate(succs):
        lines.append(f"b{b}:")
        if not targets:
            lines.append("  ret i32 0")
        elif len(targets) == 1:
            lines.append(f"  br label %b{targets[0]}")
        else:
            lines.append(f"  br i1 %c, label %b{targets[0]}, label %b{targets[1]}")
    f = parse_module("\n".join(lines + ["}"])).function("main")
    reached = _reached(succs, None)
    assert set(f.idom) == {f"b{b}" for b in reached}
    for a in range(len(succs)):
        without = _reached(succs, a)
        for b in range(len(succs)):
            want = a == b or b not in reached or b not in without
            assert f.dominates(f"b{a}", f"b{b}") == want, (a, b)


# Each body holds one structural fault on the line marked `; here` (the
# lexer drops the comment).  The check runs where the fault is read, so the
# error names that line.
_MAIN = "define i32 @main() {\nentry:\n  ret i32 0\n}\n"


def _in_main(body, params=""):
    return f"define i32 @main({params}) {{\nentry:\n{body}\n  ret i32 0\n}}\n"


# a definition in one arm of a branch, and a join where USE stands
_DIAMOND = """
define i32 @main(i1 %c) {
entry:
  br i1 %c, label %left, label %join
left:
  %x = add i32 1, 2
  br label %join
join:
  %p = phi i32 [ 0, %entry ], [ %x, %left ]
  USE
  ret i32 %p
}
"""

STRUCTURAL_FAULTS = {
    "duplicate_function": _MAIN + "define i32 @main() { ; here\nentry:\n  ret i32 1\n}\n",
    "duplicate_label": """
define i32 @main() {
entry:
  br label %next
next:
  br label %done
next: ; here
  br label %done
done:
  ret i32 0
}
""",
    "label_repeating_the_unnamed_entrys_number": """
define i32 @main() {
  br label %0
0: ; here
  ret i32 0
}
""",
    "instruction_after_terminator": """
define i32 @main() {
entry:
  ret i32 0
  %x = add i32 1, 2 ; here
}
""",
    "block_without_terminator": """
define i32 @main() {
entry:
  %v = add i32 1, 2
next: ; here
  ret i32 %v
}
""",
    "function_ends_without_terminator": """
define i32 @main() {
entry:
  %v = add i32 1, 2
} ; here
""",
    "phi_after_non_phi": """
define i32 @main() {
entry:
  br label %next
next:
  %a = add i32 1, 2
  %p = phi i32 [ 0, %entry ] ; here
  ret i32 %p
}
""",
    "unknown_branch_label": """
define i32 @main() {
entry:
  br label %nowhere ; here
}
""",
    "unknown_switch_case_label": """
define i32 @main() {
entry:
  switch i32 0, label %done [ ; here
    i32 1, label %nowhere
  ]
done:
  ret i32 0
}
""",
    "phi_predecessor_mismatch": """
define i32 @main() {
entry:
  br label %next
next:
  %x = phi i32 [ 0, %entry ], [ 1, %bogus ] ; here
  ret i32 %x
bogus:
  ret i32 0
}
""",
    "icmp_on_a_float": _in_main("  %c = icmp eq double 1.0, 2.0 ; here"),
    "void_load": _in_main("  %v = load void, ptr null ; here"),
    "void_store": _in_main("  store void undef, ptr null ; here"),
    "void_alloca": _in_main("  %p = alloca void ; here"),
    "void_getelementptr_source": _in_main("  %q = getelementptr void, ptr null, i32 1 ; here"),
    "void_global": "@g = global void zeroinitializer ; here\n" + _MAIN,
    "void_array_element": "@g = global [2 x void] zeroinitializer ; here\n" + _MAIN,
    "store_of_an_aggregate": _in_main("  %p = alloca [2 x i32]\n  %v = load [2 x i32], ptr %p\n"
                                      "  store [2 x i32] %v, ptr %p ; here"),
    "alloca_count_not_an_integer": _in_main("  %p = alloca i32, double 2.0 ; here"),
    "alignment_not_an_integer": _in_main("  %p = alloca i32, align 1.5 ; here"),
    "array_count_not_an_integer": "@g = global [0x10 x i32] zeroinitializer ; here\n" + _MAIN,
    "integer_literal_not_an_integer": _in_main("  %r = add i32 1.5, 2 ; here"),
    "getelementptr_into_a_scalar": _in_main(
        "  %q = getelementptr [2 x i32], ptr null, i32 0, i32 1, i32 0 ; here"),
    "getelementptr_struct_field_out_of_range": _in_main(
        "  %q = getelementptr { i8, i64 }, ptr null, i32 0, i32 2 ; here"),
    "getelementptr_register_index_into_a_struct": _in_main(
        "  %q = getelementptr { i8, i64 }, ptr null, i32 0, i32 %a ; here", "i32 %a"),
    "constant_getelementptr_out_of_range": "@g = global { i8, i64 } zeroinitializer\n"
        "@p = global ptr getelementptr ({ i8, i64 }, ptr @g, i32 0, i32 2) ; here\n" + _MAIN,
    "call_with_too_few_arguments": "define i32 @f(i32 %x) {\nentry:\n  ret i32 %x\n}\n"
        + _in_main("  %r = call i32 @f() ; here"),
    "call_with_a_wrong_argument_type": "define i32 @f(i32 %x) {\nentry:\n  ret i32 %x\n}\n"
        + _in_main("  %r = call i32 @f(double 1.0) ; here"),
    "call_expecting_a_wrong_result": "define void @f() {\nentry:\n  ret void\n}\n"
        + _in_main("  %r = call i32 @f() ; here"),
    "malloc_without_arguments": _in_main("  %p = call ptr @malloc() ; here"),
    "calloc_with_one_argument": _in_main("  %p = call ptr @calloc(i32 4) ; here"),
    "memcpy_with_two_arguments": _in_main(
        "  call void @llvm.memcpy.p0.p0.i32(ptr null, ptr null) ; here"),
    "memset_of_a_float_length": _in_main(
        "  call void @llvm.memset.p0.i32(ptr null, i8 0, double 4.0, i1 false) ; here"),
    "operand_naming_no_global": _in_main("  %v = load i32, ptr @nope ; here"),
    "initializer_naming_no_global": "@p = global ptr @nope ; here\n" + _MAIN,
    "initializer_of_another_type": "@a = global [2 x i32] [i32 1, double 2.0] ; here\n" + _MAIN,
    "initializer_of_another_count": "@a = global [4294967295 x i32] [i32 1] ; here\n" + _MAIN,
    "entry_block_with_predecessors": """
define i32 @main() {
entry:
  %c = icmp eq i32 0, 0
  br i1 %c, label %entry, label %done ; here
done:
  ret i32 0
}
""",
    "register_used_at_another_type": _in_main(
        "  %f = fadd double 1.0, 2.0\n  %r = add i32 %f, 1 ; here"),
    "register_defined_twice": _in_main("  %r = add i32 1, 2\n  %r = add i32 3, 4 ; here"),
    "ret_of_another_type": "define i32 @main() {\nentry:\n  ret double 1.0 ; here\n}\n",
    "zext_to_a_narrower_type": _in_main("  %z = zext i32 300 to i8 ; here"),
    "sext_to_the_same_width": _in_main("  %s = sext i16 %x to i16 ; here", "i16 %x"),
    "undefined_register": _in_main("  %r = add i32 %nope, 1 ; here"),
    "register_used_before_its_definition": _in_main("  %a = add i32 %b, 1 ; here\n"
                                                    "  %b = add i32 2, 3"),
    "register_used_by_its_own_definition": _in_main("  %a = add i32 %a, 1 ; here"),
    "register_used_where_its_block_does_not_dominate": _DIAMOND.replace(
        "USE", "%y = add i32 %x, 1 ; here"),
    "phi_operand_its_block_does_not_dominate": _DIAMOND.replace("USE", "").replace(
        "[ 0, %entry ], [ %x, %left ]", "[ %x, %entry ], [ %x, %left ] ; here"),
    "register_defined_in_an_unreachable_block": """
define i32 @main() {
entry:
  br label %exit
dead:
  %x = add i32 1, 2
  br label %exit
exit:
  %r = add i32 %x, 1 ; here
  ret i32 %r
}
""",
    "first_of_two_faults": """
define i32 @f() {
entry:
  br label %nowhere ; here
}
define i32 @main() {
entry:
  ret i32 0
entry:
  ret i32 1
}
""",
    "type_that_holds_itself_by_value": "%T = type { %T } ; here\n"
        "@g = global %T zeroinitializer\n" + _MAIN,
    "literal_of_an_aggregate_type": "define {i32} @main() {\nentry:\n  ret {i32} 5 ; here\n}\n",
    "constant_getelementptr_with_a_register_index": "@a = global [4 x i32] zeroinitializer\n"
        + _in_main("  %v = load i32, ptr getelementptr ([4 x i32], ptr @a, i32 0, i32 %i) ; here",
                   "i32 %i"),
    "getelementptr_index_of_a_float": _in_main(
        "  %p = alloca [4 x i32]\n"
        "  %q = getelementptr [4 x i32], ptr %p, i32 0, double 1.0 ; here"),
    "global_initializer_of_a_register": "@g = global i32 %x ; here\n" + _MAIN,
    # an unclosed bracket runs to the end of the file
    "initializer_cut_off_by_the_end_of_the_file": _MAIN + "@a = global [1 x i32] [i32 ; here\n",
    "function_without_a_body": "define i32 @main() ; here\n",
    "function_without_blocks": "define i32 @main() {\n} ; here\n",
    "terminator_that_assigns_a_result":
        "define i32 @main() {\nentry:\n  %r = ret i32 0 ; here\n}\n",
    "float_opcode_on_integers": _in_main("  %r = fadd i32 1, 2 ; here"),
    "integer_opcode_on_floats": _in_main("  %r = add double 1.0, 2.0 ; here"),
    "fneg_of_an_integer": _in_main("  %r = fneg i32 1 ; here"),
    "fcmp_of_integers": _in_main("  %r = fcmp olt i32 1, 2 ; here"),
    "cast_from_a_wrong_type": _in_main("  %r = sitofp double 1.0 to double ; here"),
    "load_through_a_non_pointer": _in_main("  %v = load i32, i32 4 ; here"),
    "branch_on_an_i32": _in_main("  br i32 1, label %a, label %a ; here\na:"),
    "switch_on_a_float": _in_main("  switch double 1.0, label %a [] ; here\na:"),
    # LLVM accepts these; they are outside the subset
    "code_on_the_line_of_the_opening_brace": "define i32 @main() { ret i32 0 ; here\n}\n",
    "atomic_load": _in_main(
        "  %p = alloca i32\n  %v = load atomic i32, ptr %p seq_cst, align 4 ; here"),
    "atomic_store": _in_main(
        "  %p = alloca i32\n  store atomic i32 1, ptr %p seq_cst, align 4 ; here"),
    "indirect_call": _in_main("  %r = call i32 %f() ; here", "ptr %f"),
}


@pytest.mark.parametrize("name", sorted(STRUCTURAL_FAULTS))
def test_structural_fault_names_its_line(name):
    src = STRUCTURAL_FAULTS[name]
    line = next(i for i, text in enumerate(src.split("\n"), 1) if "; here" in text)
    with pytest.raises((ParseError, UnresolvedReferenceError)) as info:
        parse_module(src)
    assert info.value.line == line
    assert re.fullmatch(rf"{line}:\d+: .*|.* \(line {line}\)", str(info.value))


def test_duplicate_function_rejected():
    src = EXAMPLE_A + EXAMPLE_A
    with pytest.raises(ParseError):
        parse_module(src)


def test_fingerprint_stable():
    m1 = parse_module(EXAMPLE_B)
    m2 = parse_module(EXAMPLE_B)
    assert m1.fingerprint() == m2.fingerprint()
    assert m1.fingerprint() != parse_module(EXAMPLE_A).fingerprint()
