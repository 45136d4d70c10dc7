import pytest

from irtime import (
    Interpreter, ProbeSet, RunLimits, parse_module, parse_file, run,
)
from irtime.errors import (
    StepLimitExceeded, OutOfBoundsAccess, DivisionByZero, StackOverflow,
    UnresolvedReferenceError,
)

from conftest import EXAMPLE_B


def _ret(src, entry="main", limits=None):
    return Interpreter(parse_module(src), limits=limits).execute(entry)


def _main(body, ret="ret i32 %r"):
    return f"define i32 @main() {{\nentry:\n{body}\n  {ret}\n}}\n"


def test_example_a_trace(example_a):
    t = run(example_a)
    assert t.block_counts == {"main:entry": 1}
    assert t.op_counts == {"ret": 1}
    assert t.inst_miss == 1
    assert t.bb_jump == 0
    assert t.total_instructions() == 1


def test_example_b_values_and_trace(example_b):
    assert Interpreter(example_b).execute("main") == 45
    t = run(example_b)
    assert t.block_counts == {"main:entry": 1, "main:loop": 10, "main:exit": 1}
    assert t.op_counts["add"] == 20
    assert t.op_counts["icmp"] == 10
    assert t.op_counts["phi"] == 20
    assert t.op_counts["br"] == 11
    assert (t.br_hit, t.br_miss, t.br_uncond) == (8, 2, 1)
    assert t.bb_jump == 2
    assert t.inst_miss == 8
    assert t.total_instructions() == 62


def test_sample_return_values(samples_dir):
    expected = {
        "sum_loop": 45,
        "dot_product": 816,
        "matmul4": 16,
        "bubble_sort": 883,
        "fib_recursive": 144,
        "memops": 7,
        "switch_dispatch": 589,
    }
    for name, want in expected.items():
        m = parse_file(samples_dir / f"{name}.ll")
        assert Interpreter(m).execute("main") == want, name


def test_wrapping_arithmetic():
    assert _ret(_main("  %r = add i32 4294967295, 1")) == 0
    assert _ret(_main("  %r = sub i32 0, 1")) == (1 << 32) - 1
    assert _ret(_main("  %r = mul i32 65536, 65536")) == 0


def test_signed_division_truncates_toward_zero():
    assert _ret(_main("  %r = sdiv i32 -7, 2")) == (1 << 32) - 3   # -3
    assert _ret(_main("  %r = sdiv i32 7, -2")) == (1 << 32) - 3
    assert _ret(_main("  %r = srem i32 -7, 2")) == (1 << 32) - 1   # -1
    assert _ret(_main("  %r = srem i32 7, -2")) == 1


def test_int_min_overflow_wraps():
    # INT_MIN / -1 has no representable result; it wraps back to INT_MIN
    assert _ret(_main("  %r = sdiv i32 -2147483648, -1")) == 1 << 31


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZero):
        _ret(_main("  %r = sdiv i32 1, 0"))
    with pytest.raises(DivisionByZero):
        _ret(_main("  %r = urem i32 1, 0"))


def test_shift_semantics():
    assert _ret(_main("  %r = shl i32 1, 31")) == 1 << 31
    assert _ret(_main("  %r = shl i32 1, 32")) == 0
    assert _ret(_main("  %r = lshr i32 -1, 24")) == 255
    assert _ret(_main("  %r = ashr i32 -8, 2")) == (1 << 32) - 2
    # oversized ashr keeps the sign fill
    assert _ret(_main("  %r = ashr i32 -8, 99")) == (1 << 32) - 1


def test_icmp_signed_vs_unsigned():
    src = _main(
        "  %a = icmp slt i32 -1, 0\n"
        "  %b = icmp ult i32 -1, 0\n"
        "  %az = zext i1 %a to i32\n"
        "  %bz = zext i1 %b to i32\n"
        "  %bs = shl i32 %bz, 1\n"
        "  %r = or i32 %az, %bs"
    )
    # signed: -1 < 0 true; unsigned: 0xffffffff < 0 false
    assert _ret(src) == 1


def test_sext_and_zext():
    src = """
define i64 @wide() {
entry:
  %a = add i32 0, -1
  %s = sext i32 %a to i64
  ret i64 %s
}

define i32 @main() {
entry:
  %v = call i64 @wide()
  %ok = icmp eq i64 %v, -1
  %r = zext i1 %ok to i32
  ret i32 %r
}
"""
    assert _ret(src) == 1


def test_f32_result_is_rounded():
    # keep a float-typed accumulator: the result must equal the value
    # round-tripped through binary32, not the double-precision one
    src = """
define float @f() {
entry:
  %x = fdiv float 1.0, 3.0
  ret float %x
}

define i32 @main() {
entry:
  %v = call float @f()
  %scaled = fmul float %v, 3000000.0
  %r = fptosi float %scaled to i32
  ret i32 %r
}
"""
    import struct
    f32_third = struct.unpack("<f", struct.pack("<f", 1.0 / 3.0))[0]
    want = int(struct.unpack("<f", struct.pack(
        "<f", f32_third * 3000000.0))[0])
    assert _ret(src) == want


def test_fptosi_truncates_and_handles_nan():
    assert _ret(_main("  %r = fptosi double 2.9 to i32")) == 2
    assert _ret(_main("  %r = fptosi double -2.9 to i32")) == (1 << 32) - 2
    # NaN converts to zero (deterministic stand-in for poison)
    src = _main(
        "  %nan = fdiv double 0.0, 0.0\n"
        "  %r = fptosi double %nan to i32"
    )
    assert _ret(src) == 0


def test_fcmp_unordered_predicates():
    src = _main(
        "  %nan = fdiv double 0.0, 0.0\n"
        "  %o = fcmp oeq double %nan, %nan\n"
        "  %u = fcmp ueq double %nan, %nan\n"
        "  %oz = zext i1 %o to i32\n"
        "  %uz = zext i1 %u to i32\n"
        "  %us = shl i32 %uz, 1\n"
        "  %r = or i32 %oz, %us"
    )
    # ordered-eq false on NaN, unordered-eq true
    assert _ret(src) == 2


def test_alloca_load_store_roundtrip():
    src = _main(
        "  %p = alloca i32\n"
        "  store i32 77, ptr %p\n"
        "  %r = load i32, ptr %p"
    )
    assert _ret(src) == 77


def test_uninitialized_load_returns_zero_and_is_counted():
    src = _main(
        "  %p = alloca i32\n"
        "  %r = load i32, ptr %p"
    )
    m = parse_module(src)
    interp = Interpreter(m)
    assert interp.execute("main") == 0
    assert interp.uninitialized_loads == 1
    t = run(m)
    assert t.uninitialized_loads == 1


def test_globals_initialized_and_mutable():
    src = """
@counter = global i32 40
@arr = global [4 x i32] [i32 1, i32 2, i32 3, i32 4]

define i32 @main() {
entry:
  %v = load i32, ptr @counter
  %p = getelementptr [4 x i32], ptr @arr, i32 0, i32 2
  %e = load i32, ptr %p
  store i32 9, ptr %p
  %e2 = load i32, ptr %p
  %s = add i32 %v, %e
  %r = add i32 %s, %e2
  ret i32 %r
}
"""
    assert _ret(src) == 40 + 3 + 9


def test_cstring_global_and_byte_loads():
    src = """
@msg = constant [4 x i8] c"ab\\00z"

define i32 @main() {
entry:
  %p = getelementptr [4 x i8], ptr @msg, i32 0, i32 1
  %c = load i8, ptr %p
  %r = zext i8 %c to i32
  ret i32 %r
}
"""
    assert _ret(src) == ord("b")


def test_global_pointer_initializer():
    src = """
@x = global i32 123
@px = global ptr @x

define i32 @main() {
entry:
  %p = load ptr, ptr @px
  %r = load i32, ptr %p
  ret i32 %r
}
"""
    assert _ret(src) == 123


def test_struct_global_field_access():
    src = """
%pair = type { i8, i64 }
@p = global %pair { i8 3, i64 500 }

define i32 @main() {
entry:
  %f = getelementptr %pair, ptr @p, i32 0, i32 1
  %v = load i64, ptr %f
  %ok = icmp eq i64 %v, 500
  %r = zext i1 %ok to i32
  ret i32 %r
}
"""
    assert _ret(src) == 1


def test_step_limit():
    with pytest.raises(StepLimitExceeded):
        _ret(EXAMPLE_B, limits=RunLimits(max_steps=10))


def test_out_of_bounds_access():
    src = _main(
        "  %p = alloca i32\n"
        "  %q = getelementptr i32, ptr %p, i32 100\n"
        "  %r = load i32, ptr %q"
    )
    with pytest.raises(OutOfBoundsAccess):
        _ret(src)


def test_wild_pointer_access():
    src = _main(
        "  %r = load i32, ptr null"
    )
    with pytest.raises(OutOfBoundsAccess):
        _ret(src)


def test_stack_overflow_on_big_alloca():
    src = _main(
        "  %p = alloca [100000 x i32]\n"
        "  %r = add i32 0, 0"
    )
    with pytest.raises(StackOverflow):
        _ret(src, limits=RunLimits(max_stack_bytes=4096))


def test_stack_frames_are_released_and_zeroed():
    # each call allocates a fresh slot at the same address; the second call
    # must observe zeros, not the 99 written by the first
    src = """
define i32 @probe(i32 %write) {
entry:
  %p = alloca i32
  %w = icmp ne i32 %write, 0
  br i1 %w, label %doit, label %readit

doit:
  store i32 99, ptr %p
  ret i32 0

readit:
  %v = load i32, ptr %p
  ret i32 %v
}

define i32 @main() {
entry:
  %a = call i32 @probe(i32 1)
  %b = call i32 @probe(i32 0)
  ret i32 %b
}
"""
    assert _ret(src) == 0


def test_memcpy_moves_bytes_and_volume():
    m = parse_module("""
declare ptr @malloc(i32)
declare void @llvm.memcpy.p0.p0.i32(ptr, ptr, i32, i1)

define i32 @main() {
entry:
  %src = call ptr @malloc(i32 128)
  store i32 777, ptr %src
  %dst = call ptr @malloc(i32 128)
  call void @llvm.memcpy.p0.p0.i32(ptr %dst, ptr %src, i32 100, i1 false)
  %r = load i32, ptr %dst
  ret i32 %r
}
""")
    interp = Interpreter(m)
    assert interp.execute("main") == 777
    t = run(m)
    assert t.memcpy_bytes == 100
    assert t.malloc_bytes == 256
    # the byte-moving routine bypasses the data cache model
    assert t.load_hit + t.load_miss == t.op_counts.get("load", 0)


def test_calloc_zeroes_without_uninitialized_flags():
    m = parse_module("""
declare ptr @calloc(i32, i32)

define i32 @main() {
entry:
  %p = call ptr @calloc(i32 16, i32 4)
  %v = load i32, ptr %p
  ret i32 %v
}
""")
    interp = Interpreter(m)
    assert interp.execute("main") == 0
    assert interp.uninitialized_loads == 0
    t = run(m)
    assert t.calloc_bytes == 64


def test_memset_fills():
    src = """
declare void @llvm.memset.p0.i32(ptr, i8, i32, i1)

define i32 @main() {
entry:
  %p = alloca [8 x i32]
  call void @llvm.memset.p0.i32(ptr %p, i8 255, i32 32, i1 false)
  %q = getelementptr [8 x i32], ptr %p, i32 0, i32 5
  %v = load i32, ptr %q
  ret i32 %v
}
"""
    assert _ret(src) == (1 << 32) - 1


def test_noop_intrinsics_count_as_calls():
    m = parse_module("""
declare void @llvm.lifetime.start.p0(i64, ptr)
declare void @llvm.lifetime.end.p0(i64, ptr)

define i32 @main() {
entry:
  %p = alloca i32
  call void @llvm.lifetime.start.p0(i64 4, ptr %p)
  store i32 1, ptr %p
  call void @llvm.lifetime.end.p0(i64 4, ptr %p)
  ret i32 0
}
""")
    t = run(m)
    assert t.op_counts["call"] == 2


def test_switch_default_and_cases():
    src = """
define i32 @pick(i32 %x) {
entry:
  switch i32 %x, label %d [
    i32 1, label %one
    i32 9, label %nine
  ]

one:
  ret i32 100

nine:
  ret i32 900

d:
  ret i32 -1
}

define i32 @main() {
entry:
  %a = call i32 @pick(i32 1)
  %b = call i32 @pick(i32 9)
  %c = call i32 @pick(i32 5)
  %s1 = add i32 %a, %b
  %r = add i32 %s1, %c
  ret i32 %r
}
"""
    assert _ret(src) == (100 + 900 + ((1 << 32) - 1)) & 0xFFFFFFFF


def test_phi_parallel_evaluation():
    # the two phis swap values each iteration; evaluating them sequentially
    # instead of in parallel would collapse both to the same value
    src = """
define i32 @main() {
entry:
  br label %loop

loop:
  %n = phi i32 [ 0, %entry ], [ %n.next, %loop ]
  %a = phi i32 [ 1, %entry ], [ %b, %loop ]
  %b = phi i32 [ 2, %entry ], [ %a, %loop ]
  %n.next = add i32 %n, 1
  %go = icmp slt i32 %n.next, 3
  br i1 %go, label %loop, label %exit

exit:
  %hi = mul i32 %a, 10
  %r = add i32 %hi, %b
  ret i32 %r
}
"""
    # entries see (1,2), (2,1), (1,2); sequential evaluation would give (2,2)
    assert _ret(src) == 12


def test_repeat_runs_identical(samples_dir):
    m = parse_file(samples_dir / "matmul4.ll")
    assert run(m) == run(m)


def test_extra_probes_observe_without_perturbing(example_b):
    events = {"blocks": 0, "instructions": 0, "branches": 0}
    probes = ProbeSet(
        block_enter=lambda b: events.__setitem__("blocks", events["blocks"] + 1),
        instruction=lambda s, o: events.__setitem__("instructions", events["instructions"] + 1),
        cond_branch=lambda s, t: events.__setitem__("branches", events["branches"] + 1),
    )
    t = run(example_b, probes=probes)
    assert events["blocks"] == 12
    assert events["instructions"] == t.total_instructions() == 62
    assert events["branches"] == 10
    assert t.br_hit == 8  # unchanged by the extra observer


def test_unresolved_references_fail_only_when_executed():
    src = """
define i32 @main(i1 %take) {
entry:
  br i1 %take, label %bad, label %ok

bad:
  %v = load i32, ptr @nope
  %w = add i32 %v, %undefined
  ret i32 %w

ok:
  ret i32 7
}
"""
    m = parse_module(src)
    assert Interpreter(m).execute("main", (0,)) == 7
    with pytest.raises(UnresolvedReferenceError, match="unresolved global 'nope'"):
        Interpreter(m).execute("main", (1,))
    with pytest.raises(UnresolvedReferenceError, match="unresolved register 'undefined'"):
        Interpreter(parse_module(src.replace("load i32, ptr @nope", "add i32 1, 2"))).execute(
            "main", (1,))


def test_initializer_naming_an_undefined_global():
    src = "@p = global ptr @nope\n\ndefine i32 @main() {\nentry:\n  ret i32 0\n}\n"
    with pytest.raises(UnresolvedReferenceError, match="unresolved global 'nope'"):
        Interpreter(parse_module(src))


def test_entry_params_default_to_zero():
    src = """
define i32 @main(i32 %argc, ptr %argv) {
entry:
  ret i32 %argc
}
"""
    assert _ret(src) == 0


def test_mutual_recursion():
    src = """
define i32 @is_even(i32 %n) {
entry:
  %z = icmp eq i32 %n, 0
  br i1 %z, label %yes, label %dec

yes:
  ret i32 1

dec:
  %m = sub i32 %n, 1
  %r = call i32 @is_odd(i32 %m)
  ret i32 %r
}

define i32 @is_odd(i32 %n) {
entry:
  %z = icmp eq i32 %n, 0
  br i1 %z, label %no, label %dec

no:
  ret i32 0

dec:
  %m = sub i32 %n, 1
  %r = call i32 @is_even(i32 %m)
  ret i32 %r
}

define i32 @main() {
entry:
  %r = call i32 @is_even(i32 10)
  ret i32 %r
}
"""
    assert _ret(src) == 1


def test_bb_jump_spans_calls():
    # the jump count follows the global block-entry sequence: entering a
    # callee is a transition, but re-entering the block you were just in
    # (second call to the same leaf) is a self-transition and adds nothing
    src = """
define i32 @leaf() {
entry:
  ret i32 1
}

define i32 @other() {
entry:
  ret i32 1
}

define i32 @main() {
entry:
  %a = call i32 @leaf()
  %b = call i32 @leaf()
  %c = call i32 @other()
  %r = add i32 %a, %b
  ret i32 %r
}
"""
    t = run(parse_module(src))
    # main:entry -> leaf:entry (+1) -> leaf:entry (0) -> other:entry (+1)
    assert t.bb_jump == 2
    assert t.block_counts == {
        "main:entry": 1, "leaf:entry": 2, "other:entry": 1}
