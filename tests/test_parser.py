import pytest

from irtime import parse_module
from irtime.errors import ParseError, UnsupportedOpcodeError, UnresolvedReferenceError
from irtime.irmodel import Const, GlobalRef, ConstGep

from conftest import EXAMPLE_A, EXAMPLE_B


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
declare void @llvm.memset.p0.i32(ptr, i8, i32, i1)

define i32 @main() {
entry:
  %buf = alloca [16 x i8]
  call void @llvm.memset.p0.i32(ptr noundef %buf, i8 0, i32 16, i1 false)
  ret i32 0
}
"""
    m = parse_module(src)
    call = m.function("main").blocks[0].instructions[1]
    assert call.opcode == "call"
    assert call.callee == "llvm.memset.p0.i32"


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
    with pytest.raises(UnresolvedReferenceError):
        parse_module(src)


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


# Each body holds one structural fault on the line marked `; here` (the
# lexer drops the comment).  The check runs where the fault is read, so the
# ParseError names that line.
_MAIN = "define i32 @main() {\nentry:\n  ret i32 0\n}\n"
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
}


@pytest.mark.parametrize("name", sorted(STRUCTURAL_FAULTS))
def test_structural_fault_names_its_line(name):
    src = STRUCTURAL_FAULTS[name]
    line = next(i for i, text in enumerate(src.split("\n"), 1) if "; here" in text)
    with pytest.raises(ParseError) as info:
        parse_module(src)
    assert info.value.line == line
    assert str(info.value).startswith(f"{line}:")


def test_duplicate_function_rejected():
    src = EXAMPLE_A + EXAMPLE_A
    with pytest.raises(ParseError):
        parse_module(src)


def test_fingerprint_stable():
    m1 = parse_module(EXAMPLE_B)
    m2 = parse_module(EXAMPLE_B)
    assert m1.fingerprint() == m2.fingerprint()
    assert m1.fingerprint() != parse_module(EXAMPLE_A).fingerprint()
