import re
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from irtime import (
    CacheConfig, CacheModel, Interpreter, ProbeSet, RunLimits, TraceBuilder, parse_module,
    parse_file, run,
)
from irtime.errors import (
    StepLimitExceeded, OutOfBoundsAccess, DivisionByZero, StackOverflow,
    UnresolvedReferenceError, ParseError, InterpreterError,
)
from irtime.interp import MemoryImage, FRAME_BYTES, GLOBAL_BASE, HEAP_BASE
from irtime.irtypes import SCALARS, array_of, struct_of

from conftest import EXAMPLE_B, gep_offset, generated_sources, lli, needs_lli


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


_U32 = struct.Struct("<I")


def _accesses(mem, addr, nbytes):
    """A load, a store and a byte write of `nbytes` at `addr`."""
    fmt = struct.Struct("<" + {1: "B", 4: "I"}[nbytes])
    yield lambda: mem.load(addr, nbytes, fmt.unpack_from)
    yield lambda: mem.store(addr, nbytes, fmt.pack_into, 0, b"\x01" * nbytes)
    yield lambda: mem.write(addr, bytes(nbytes))


@pytest.mark.parametrize("addr, nbytes", [
    (0, 4),                 # null
    (0x0FFF_FFFF, 1),       # just below the globals
    (0x4000_0000, 4),       # just above the heap's span
    (0xFFFF_FFFC, 4),
    (-4, 4),
    (HEAP_BASE, 1),         # nothing allocated on the heap yet
])
def test_addresses_outside_every_region(addr, nbytes):
    mem = MemoryImage(RunLimits())
    for access in _accesses(mem, addr, nbytes):
        with pytest.raises(OutOfBoundsAccess) as info:
            access()
        assert str(info.value) == f"out-of-bounds access of {nbytes} byte(s) at 0x{addr:08x}"


@pytest.mark.parametrize("region", ["globals", "stack", "heap"])
def test_accesses_past_a_regions_top(region):
    mem = MemoryImage(RunLimits())
    addr = getattr(mem, region).allocate(8, 4)
    top = addr + 8
    assert mem.load(top - 4, 4, _U32.unpack_from) == 0
    assert mem.uninitialized_loads == 1
    mem.store(top - 4, 4, _U32.pack_into, 7, b"\x01" * 4)
    assert mem.load(top - 4, 4, _U32.unpack_from) == 7
    assert mem.uninitialized_loads == 1
    for start, nbytes in ((top, 4), (top, 1), (top - 2, 4), (top + 64, 4)):
        for access in _accesses(mem, start, nbytes):
            with pytest.raises(OutOfBoundsAccess,
                               match=f"^out-of-bounds access of {nbytes} byte\\(s\\) "
                                     f"at 0x{start:08x}$"):
                access()


# --- the written-byte shadow and its written prefix ---------------------------
# MemoryImage against a model that keeps, per region, its top and a dict of
# the bytes written so far: a load reads those bytes, zero elsewhere, and is
# an uninitialized one when any of its bytes is missing from the dict.

_REGIONS = ("globals", "stack", "heap")
_FORMATS = {n: struct.Struct("<" + c) for n, c in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))}
_region = st.sampled_from(_REGIONS)
# an offset is reduced modulo the room the access has; many are 0
_offset = st.one_of(st.just(0), st.integers(0, 40))
_width = st.sampled_from(sorted(_FORMATS))
_memory_ops = st.lists(st.one_of(
    st.tuples(st.just("allocate"), _region, st.integers(0, 24), st.sampled_from((1, 2, 4, 8))),
    st.tuples(st.just("store"), _region, _offset, _width, st.integers(0, (1 << 64) - 1)),
    st.tuples(st.just("fill"), _region, _offset, st.integers(0, 24), st.integers(0, 255)),
    st.tuples(st.just("copy"), _region, _offset, _region, _offset, st.integers(0, 24)),
    st.tuples(st.just("load"), _region, _offset, _width),
    st.tuples(st.just("release_to"), _region, _offset),
), min_size=20, max_size=60)


@settings(max_examples=200, deadline=None)
@given(_memory_ops)
# a copy of never-written bytes into the written prefix, then a load of them
@example([("allocate", "heap", 16, 8), ("fill", "heap", 0, 16, 7),
          ("allocate", "heap", 8, 8), ("copy", "heap", 0, "heap", 16, 4),
          ("load", "heap", 0, 4), ("load", "heap", 4, 4)])
# a released and reallocated frame, read before it is written again
@example([("allocate", "stack", 8, 8), ("store", "stack", 0, 8, 5),
          ("release_to", "stack", 0), ("allocate", "stack", 8, 8),
          ("load", "stack", 0, 8)])
# a load that straddles the last written byte, and a store that closes the gap
@example([("allocate", "globals", 16, 8), ("fill", "globals", 0, 6, 1),
          ("store", "globals", 8, 4, 3), ("load", "globals", 3, 4),
          ("load", "globals", 4, 8), ("store", "globals", 6, 2, 9),
          ("load", "globals", 4, 8), ("load", "globals", 8, 8)])
def test_memory_image_matches_a_byte_model(ops):
    mem = MemoryImage(RunLimits())
    tops = dict.fromkeys(_REGIONS, 0)
    written = {r: {} for r in _REGIONS}     # region -> offset -> byte
    uninitialized = 0

    def place(r, raw, n):
        """An offset in r where n bytes fit, or None."""
        return None if n > tops[r] else raw % (tops[r] - n + 1)

    for kind, r, *rest in ops:
        region = getattr(mem, r)
        if kind == "allocate":
            size, align = rest
            start = -(-tops[r] // align) * align
            assert region.allocate(size, align) == region.base + start
            tops[r] = start + max(size, 1)
        elif kind == "release_to":
            mark = rest[0] % (tops[r] + 1)
            region.release_to(mark)
            tops[r] = mark
            written[r] = {o: b for o, b in written[r].items() if o < mark}
        elif kind == "store":
            raw, n, value = rest
            off = place(r, raw, n)
            if off is not None:
                value &= (1 << (8 * n)) - 1
                mem.store(region.base + off, n, _FORMATS[n].pack_into, value, b"\x01" * n)
                written[r].update(enumerate(value.to_bytes(n, "little"), off))
        elif kind == "fill":
            raw, n, byte = rest
            n = min(n, tops[r])
            off = place(r, raw, n)
            if off is not None:
                mem.fill(region.base + off, byte, n)
                written[r].update((o, byte) for o in range(off, off + n))
        elif kind == "copy":
            raw, src_r, src_raw, n = rest
            n = min(n, tops[r], tops[src_r])
            off, src = place(r, raw, n), place(src_r, src_raw, n)
            if off is not None and src is not None:
                mem.copy(region.base + off, getattr(mem, src_r).base + src, n)
                moved = [written[src_r].get(o) for o in range(src, src + n)]
                for o, b in enumerate(moved, off):
                    if b is None:
                        written[r].pop(o, None)
                    else:
                        written[r][o] = b
        else:
            raw, n = rest
            off = place(r, raw, n)
            if off is not None:
                got = [written[r].get(o) for o in range(off, off + n)]
                uninitialized += None in got
                expected = int.from_bytes(bytes(b or 0 for b in got), "little")
                assert mem.load(region.base + off, n, _FORMATS[n].unpack_from) == expected
        assert mem.uninitialized_loads == uninitialized


def _value_and_uninitialized(src):
    m = parse_module(src)
    interp = Interpreter(m)
    value = interp.execute("main")
    assert run(m).uninitialized_loads == interp.uninitialized_loads
    return value, interp.uninitialized_loads


def test_memcpy_of_unwritten_bytes_over_a_memset_buffer():
    # bytes 0..7 of %a take the never-written state of %b's; 8..15 keep 7s
    src = """
declare ptr @malloc(i32)
declare void @llvm.memset.p0.i32(ptr, i8, i32, i1)
declare void @llvm.memcpy.p0.p0.i32(ptr, ptr, i32, i1)

define i32 @main() {
entry:
  %a = call ptr @malloc(i32 16)
  call void @llvm.memset.p0.i32(ptr %a, i8 7, i32 16, i1 false)
  %b = call ptr @malloc(i32 16)
  call void @llvm.memcpy.p0.p0.i32(ptr %a, ptr %b, i32 8, i1 false)
  %p = getelementptr i8, ptr %a, i32 %which
  %v = load i32, ptr %p
  ret i32 %v
}
"""
    assert _value_and_uninitialized(src.replace("%which", "4")) == (0, 1)
    assert _value_and_uninitialized(src.replace("%which", "8")) == (0x07070707, 0)
    assert _value_and_uninitialized(src.replace("%which", "6")) == (0x07070000, 1)


def test_a_load_of_an_external_declaration_is_uninitialized():
    # the module only declares @g, so its value is unknown: its bytes read
    # as zero and unwritten until a store writes them; @h's are written
    src = """
@g = external global i32
@h = global i32 5

define i32 @main() {
entry:
  %v = load i32, ptr @g
  %w = load i32, ptr @h
  %r = add i32 %v, %w
  ret i32 %r
}
"""
    assert _value_and_uninitialized(src) == (5, 1)
    stored = src.replace("  %v =", "  store i32 7, ptr @g\n  %v =")
    assert _value_and_uninitialized(stored) == (12, 0)


def test_a_frame_reads_its_unwritten_alloca_after_another_frame_wrote_there():
    # @reader's alloca takes the stack bytes @writer's did, written and
    # released on return: they read as zero and unwritten again
    src = """
define i32 @writer() {
entry:
  %p = alloca i32
  store i32 99, ptr %p
  %r = load i32, ptr %p
  ret i32 %r
}

define i32 @reader() {
entry:
  %p = alloca i32
  %r = load i32, ptr %p
  ret i32 %r
}

define i32 @main() {
entry:
  %w = call i32 @writer()
  %r = call i32 @reader()
  %s = add i32 %w, %r
  ret i32 %s
}
"""
    assert _value_and_uninitialized(src) == (99, 1)


def test_an_i64_load_that_straddles_the_last_written_byte():
    # bytes 0..3 are written; the load reads 1..8
    src = """
define i64 @main() {
entry:
  %p = alloca [4 x i32]
  store i32 -1, ptr %p
  %q = getelementptr i8, ptr %p, i32 1
  %r = load i64, ptr %q
  ret i64 %r
}
"""
    assert _value_and_uninitialized(src) == (0x00FFFFFF, 1)
    # with bytes 4..11 written too, none of its bytes is unwritten
    src = src.replace("  %q =", "  %p1 = getelementptr i32, ptr %p, i32 1\n"
                                "  store i64 0, ptr %p1\n  %q =")
    assert _value_and_uninitialized(src) == (0x00FFFFFF, 0)


def test_stack_overflow_on_big_alloca():
    src = _main(
        "  %p = alloca [100000 x i32]\n"
        "  %r = add i32 0, 0"
    )
    with pytest.raises(StackOverflow):
        _ret(src, limits=RunLimits(max_stack_bytes=4096))


RECURSE = """
define i32 @down(i32 %n) {
entry:
  %z = icmp eq i32 %n, 0
  br i1 %z, label %base, label %step

base:
  ret i32 0

step:
  %m = sub i32 %n, 1
  %r = call i32 @down(i32 %m)
  %s = add i32 %r, 1
  ret i32 %s
}

define i32 @main(i32 %n) {
entry:
  %r = call i32 @down(i32 %n)
  ret i32 %r
}
"""


def test_call_frames_are_charged_against_the_stack_limit():
    limits = RunLimits(max_stack_bytes=1024)
    frames = 1024 // FRAME_BYTES
    module = parse_module(RECURSE)
    # main's frame and one for each call of @down: depth n takes n + 2
    assert Interpreter(module, limits=limits).execute("main", (frames - 2,)) == frames - 2
    with pytest.raises(StackOverflow, match="^stack limit of 1024 bytes exhausted$"):
        Interpreter(module, limits=limits).execute("main", (frames - 1,))


def test_recursion_without_alloca_stops_at_the_stack_limit():
    src = """
define i32 @f() {
entry:
  %r = call i32 @f()
  ret i32 %r
}
"""
    entered = []
    interp = Interpreter(parse_module(src), ProbeSet(block_enter=entered.append),
                         RunLimits(max_stack_bytes=1024))
    with pytest.raises(StackOverflow):
        interp.execute("f")
    assert 0 < len(entered) <= 1024 // FRAME_BYTES


def test_globals_are_bounded_by_the_heap_limit():
    text = "@big = global [33554432 x i8] zeroinitializer\n" + _main("  %r = add i32 0, 0")
    with pytest.raises(InterpreterError, match="^global storage exhausted at '@big'$"):
        Interpreter(parse_module(text), limits=RunLimits(max_heap_bytes=1024))
    small = "@small = global [1024 x i8] zeroinitializer\n" + _main("  %r = add i32 0, 0")
    assert _ret(small, limits=RunLimits(max_heap_bytes=1024)) == 0


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


def test_globals_are_defined_before_main_runs():
    # a zero initializer leaves every byte of its global defined, as a
    # string initializer does, so neither load is an uninitialized one
    m = parse_module("""
@z = global [4 x i32] zeroinitializer
@s = global [4 x i8] c"hi\\00\\00"

define i32 @main() {
entry:
  %a = getelementptr [4 x i32], ptr @z, i32 0, i32 3
  %x = load i32, ptr %a
  %b = getelementptr [4 x i8], ptr @s, i32 0, i32 1
  %c = load i8, ptr %b
  %y = zext i8 %c to i32
  %r = add i32 %x, %y
  ret i32 %r
}
""")
    interp = Interpreter(m)
    assert interp.execute("main") == ord("i")
    assert interp.uninitialized_loads == 0
    assert run(m).uninitialized_loads == 0


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


def test_unresolved_references_fail_while_parsing():
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
    # each is resolved while parsing, though its block may never run: a
    # register when the function ends, a global when the module does
    with pytest.raises(UnresolvedReferenceError,
                       match=r"unresolved register 'undefined' \(line 8\)"):
        parse_module(src)
    src = src.replace("%undefined", "%take.int").replace(
        "br i1", "%take.int = zext i1 %take to i32\n  br i1")
    with pytest.raises(UnresolvedReferenceError, match=r"unresolved global 'nope' \(line 8\)"):
        parse_module(src)
    m = parse_module(src.replace("load i32, ptr @nope", "add i32 1, 2"))
    assert [Interpreter(m).execute("main", (take,)) for take in (0, 1)] == [7, 4]


def test_initializer_naming_an_undefined_global():
    src = "@p = global ptr @nope\n\ndefine i32 @main() {\nentry:\n  ret i32 0\n}\n"
    with pytest.raises(UnresolvedReferenceError, match=r"unresolved global 'nope' \(line 1\)"):
        parse_module(src)


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



# --- a block that branches to itself -----------------------------------------
# runs as a loop inside its segment function; every figure below is counted
# by hand from the program text


def _looped(src):
    """(return value, steps, block counts of the trace) of main; the
    counts of main's blocks are keyed by label."""
    m = parse_module(src)
    interp = Interpreter(m)
    value = interp.execute()
    counts = {k.removeprefix("main:"): v for k, v in run(m).block_counts.items()}
    return value, interp.steps, counts


def _events(m, limits=None):
    """An interpreter of `m` that records its probe events, and the list."""
    events = []
    probes = ProbeSet(block_enter=lambda b: events.append(("enter", b)),
                      instruction=lambda s, op: events.append(("ins", s)),
                      cond_branch=lambda s, t: events.append(("branch", s, t)))
    return Interpreter(m, probes, limits), events


def _segment_calls(interp):
    """Calls of each segment function of `interp`, counted from now on."""
    calls = [0] * len(interp._segments)

    def counted(i, fn):
        def call(regs):
            calls[i] += 1
            return fn(regs)
        return call
    interp._segments[1:] = [counted(i, fn) for i, fn in enumerate(interp._segments[1:], 1)]
    return calls


_SWAP = """
define i32 @main() {
entry:
  br label %loop

loop:
  %n = phi i32 [ 0, %entry ], [ %n.next, %loop ]
  %a = phi i32 [ 1, %entry ], [ %b, %loop ]
  %b = phi i32 [ 2, %entry ], [ %a, %loop ]
  %n.next = add i32 %n, 1
  %go = icmp slt i32 %n.next, 4
  br i1 %go, label %loop, label %exit

exit:
  %hi = mul i32 %a, 10
  %r = add i32 %hi, %b
  ret i32 %r
}
"""


def test_self_loop_swaps_its_phis_in_parallel():
    # four entries, three swaps: (a, b) = (2, 1) at the exit
    assert _looped(_SWAP) == (21, 1 + 4 * 6 + 3, {"entry": 1, "loop": 4, "exit": 1})


def test_self_loop_through_a_switch():
    src = """
define i32 @main() {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %i.next, %loop ]
  %acc = phi i32 [ 0, %entry ], [ %acc.next, %loop ]
  %i.next = add i32 %i, 1
  %acc.next = add i32 %acc, %i.next
  switch i32 %i.next, label %loop [
    i32 3, label %loop
    i32 7, label %exit
    i32 5, label %loop
  ]

exit:
  ret i32 %acc.next
}
"""
    value, steps, counts = _looped(src)
    assert (value, steps, counts) == (28, 1 + 7 * 5 + 1, {"entry": 1, "loop": 7, "exit": 1})
    trace = run(parse_module(src))
    assert (trace.op_counts["switch"], trace.bb_jump) == (7, 2)


def test_a_phi_of_a_self_loop_is_read_after_it():
    src = """
define i32 @main() {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %i.next, %loop ]
  %sq = phi i32 [ 0, %entry ], [ %s, %loop ]
  %s = mul i32 %i, %i
  %i.next = add i32 %i, 1
  %go = icmp ult i32 %i.next, 5
  br i1 %go, label %loop, label %exit

exit:
  %r = add i32 %sq, %i
  ret i32 %r
}
"""
    # the last entry has i = 4 and sq = 3 * 3, the square of the entry before
    assert _looped(src) == (9 + 4, 1 + 5 * 6 + 2, {"entry": 1, "loop": 5, "exit": 1})


def test_a_self_loop_stores_only_the_phis_another_block_reads(monkeypatch):
    src = """
define i32 @main() {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %i.next, %loop ]
  %acc = phi i32 [ 0, %entry ], [ %acc.next, %loop ]
  %i.next = add i32 %i, 1
  %acc.next = add i32 %acc, %i.next
  %go = icmp ult i32 %i.next, 5
  br i1 %go, label %loop, label %exit

exit:
  %r = add i32 %acc.next, %i
  ret i32 %r
}
"""
    sources = generated_sources(monkeypatch)
    assert _looped(src) == (15 + 4, 1 + 5 * 6 + 2, {"entry": 1, "loop": 5, "exit": 1})
    loop, = {f for f in sources[0].split("\ndef ") if "while True:" in f}
    # the exit edge stores %i, which the exit block reads, and not %acc,
    # which only the loop reads
    assert len(re.findall(r"regs\['i'\] = v\d+", loop)) == 1
    assert "regs['acc'] =" not in loop


_NESTED = """
define i32 @main() {
entry:
  %p = alloca i32
  store i32 0, ptr %p
  br label %outer

outer:
  %j = phi i32 [ 0, %entry ], [ %j.next, %latch ]
  %lim = add i32 %j, 1
  br label %inner

inner:
  %k = phi i32 [ 0, %outer ], [ %k.next, %inner ]
  %v = load i32, ptr %p
  %w = add i32 %v, %k
  store i32 %w, ptr %p
  %k.next = add i32 %k, 1
  %more = icmp ult i32 %k.next, %lim
  br i1 %more, label %inner, label %latch

latch:
  %j.next = add i32 %j, 1
  %again = icmp ult i32 %j.next, 4
  br i1 %again, label %outer, label %exit

exit:
  %r = load i32, ptr %p
  ret i32 %r
}
"""


def test_nested_self_loop_is_reentered_with_loads_and_stores():
    # the inner loop runs j + 1 times for j = 0..3 and adds k = 0..j
    value, steps, counts = _looped(_NESTED)
    assert value == 0 + 1 + 3 + 6
    assert counts == {"entry": 1, "outer": 4, "inner": 10, "latch": 4, "exit": 1}
    assert steps == 3 + 4 * 3 + 10 * 7 + 4 * 3 + 2
    trace = run(parse_module(_NESTED))
    assert trace.load_hit + trace.load_miss == 10 + 1
    assert trace.store_hit + trace.store_miss == 1 + 10


def test_a_self_loop_function_is_called_once_per_loop_entry():
    interp = Interpreter(parse_module(_NESTED))
    calls = _segment_calls(interp)
    assert interp.execute() == 10
    # stub, entry, outer, inner, latch, exit: the inner loop is entered 4 times
    assert calls[1:] == [1, 1, 4, 4, 4, 1]


_DIVIDES = """
define i32 @main() {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %i.next, %loop ]
  %acc = phi i32 [ 0, %entry ], [ %acc.next, %loop ]
  %i.next = add i32 %i, 1
  %d = sub i32 6, %i.next
  %q = sdiv i32 60, %d
  %acc.next = add i32 %acc, %q
  %go = icmp slt i32 %i.next, 10
  br i1 %go, label %loop, label %exit

exit:
  ret i32 %acc.next
}
"""


def _assert_faults_in_iteration(m, iterations, message):
    """`m`, _DIVIDES or a variant, raises DivisionByZero with `message` at
    the loop's fifth instruction in iteration `iterations`, having charged
    each iteration's steps and fired its probe events up to there."""
    interp, events = _events(m)
    with pytest.raises(DivisionByZero, match=f"^{message}$"):
        interp.execute()
    assert interp.steps == 1 + iterations * 8
    entry, loop = (b for b in m.functions[0].blocks[:2])
    ids = [ins.static_id for ins in loop.instructions]
    want = [("enter", entry.static_id), ("ins", entry.instructions[0].static_id)]
    for k in range(1, iterations + 1):
        want.append(("enter", loop.static_id))
        want += [("ins", s) for s in ids[:5]]       # the phis, add, sub, division
        if k < iterations:
            want += [("ins", s) for s in ids[5:]] + [("branch", ids[-1], True)]
    assert events == want


def test_division_by_zero_inside_a_self_loop():
    _assert_faults_in_iteration(parse_module(_DIVIDES), 6, "integer division by zero")


def test_remainder_by_a_constant_zero_inside_a_self_loop():
    # a constant zero divisor is not inlined: it fails when it runs
    m = parse_module(_DIVIDES.replace("sdiv i32 60, %d", "urem i32 %d, 0"))
    _assert_faults_in_iteration(m, 1, "integer remainder by zero")


def test_step_limit_inside_a_self_loop():
    m = parse_module(_SWAP.replace("slt i32 %n.next, 4", "slt i32 %n.next, 100"))
    interp, events = _events(m, RunLimits(max_steps=50))
    with pytest.raises(StepLimitExceeded):
        interp.execute()
    # 1 + 6k steps after k entries; the ninth would reach 55
    assert interp.steps == 55
    assert [e for e in events if e[0] == "enter"] == [("enter", 0)] + [("enter", 1)] * 8


def test_a_self_loop_with_a_call_returns_to_the_dispatcher():
    src = """
define i32 @twice(i32 %x) {
entry:
  %y = mul i32 %x, 2
  ret i32 %y
}

define i32 @main() {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %i.next, %loop ]
  %acc = phi i32 [ 0, %entry ], [ %acc.next, %loop ]
  %t = call i32 @twice(i32 %i)
  %acc.next = add i32 %acc, %t
  %i.next = add i32 %i, 1
  %go = icmp ult i32 %i.next, 5
  br i1 %go, label %loop, label %exit

exit:
  ret i32 %acc.next
}
"""
    value, steps, counts = _looped(src)
    assert (value, steps) == (2 * (0 + 1 + 2 + 3 + 4), 1 + 5 * 7 + 5 * 2 + 1)
    assert counts == {"entry": 1, "loop": 5, "exit": 1, "twice:entry": 5}
    interp = Interpreter(parse_module(src))
    calls = _segment_calls(interp)
    interp.execute()
    # twice's stub and body, then main's stub, entry, loop before and after
    # the call, exit: both segments of the loop run once per iteration
    assert calls[1:] == [0, 5, 1, 1, 5, 5, 1]


def test_a_self_loop_reads_a_register_before_its_definition():
    src = """
define i32 @main() {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %x, %loop ]
  %y = add i32 %x, 1
  %x = add i32 %i, 1
  %go = icmp ult i32 %y, 5
  br i1 %go, label %loop, label %exit

exit:
  ret i32 %y
}
"""
    # %x is read before its definition, on the path from the entry too
    with pytest.raises(ParseError, match="^8:0: this use of '%x' is not dominated by its "
                                         "definition in '%loop'$"):
        parse_module(src)
    # the phi reads it at the end of %loop, after it
    assert Interpreter(parse_module(src.replace("add i32 %x, 1", "add i32 %i, 1"))).execute() == 5


def test_a_result_read_after_a_loop_is_stored_on_its_exit_edge(monkeypatch):
    sources = generated_sources(monkeypatch)
    assert _looped(EXAMPLE_B)[0] == 45
    loop, = {f for f in sources[0].split("\ndef ") if "while True:" in f}
    # %s.next, which only the exit block reads, is stored once, after the
    # back edge's `continue`
    stores = [line.strip() for line in loop.splitlines() if "regs['s.next']" in line]
    assert len(stores) == 1 and re.fullmatch(r"regs\['s\.next'\] = v\d+", stores[0])
    assert loop.index(stores[0]) > loop.index("continue")


# --- a loop of several blocks ----------------------------------------------------
# runs inside its header's function, each path through the body inlined

_DIAMOND = """
@a = global [8 x i32] [i32 1, i32 2, i32 3, i32 4, i32 5, i32 6, i32 7, i32 8]

define i32 @main() {
entry:
  br label %walk

walk:
  %j = phi i32 [ 0, %entry ], [ %j.next, %join ]
  %sum = phi i32 [ 0, %entry ], [ %sum.next, %join ]
  %q = getelementptr [8 x i32], ptr @a, i32 0, i32 %j
  %v = load i32, ptr %q
  %bit = and i32 %v, 1
  %odd = icmp ne i32 %bit, 0
  br i1 %odd, label %odd.path, label %even.path

odd.path:
  %vo = mul i32 %v, 3
  br label %join

even.path:
  %ve = add i32 %v, 100
  br label %join

join:
  %v2 = phi i32 [ %vo, %odd.path ], [ %ve, %even.path ]
  store i32 %v2, ptr %q
  %sum.next = add i32 %sum, %v2
  %j.next = add i32 %j, 1
  %jc = icmp slt i32 %j.next, 8
  br i1 %jc, label %walk, label %done

done:
  %r = add i32 %sum.next, %v2
  ret i32 %r
}
"""
# 3v for odd v, v + 100 for even v; %v2 of the last iteration is 108
_DIAMOND_SUM = sum(3 * v if v % 2 else v + 100 for v in range(1, 9))


def _diamond_path():
    """(block label, steps once it is entered) of every block entry: the
    blocks run 1, 7, 2 and 6 instructions, and done 2."""
    steps, path = 1, [("entry", 1)]
    for v in range(1, 9):
        for label, size in (("walk", 7), ("odd.path" if v % 2 else "even.path", 2), ("join", 6)):
            steps += size
            path.append((label, steps))
    return path + [("done", steps + 2)]


def test_a_diamond_loop_runs_in_one_function():
    interp = Interpreter(parse_module(_DIAMOND))
    calls = _segment_calls(interp)
    assert interp.execute() == _DIAMOND_SUM + 108
    assert interp.steps == _diamond_path()[-1][1] == 1 + 8 * 15 + 2
    # stub, entry, walk, done: odd.path, even.path and join have no function
    assert calls[1:] == [1, 1, 1, 1]


def test_a_probe_reads_the_steps_of_each_block_entry_in_a_loop():
    m = parse_module(_DIAMOND)
    labels = {b.static_id: b.label for b in m.functions[0].blocks}
    seen = []
    interp = Interpreter(m, ProbeSet(block_enter=lambda b: seen.append((labels[b], interp.steps))))
    interp.execute()
    assert seen == _diamond_path()
    trace = run(m, probes=ProbeSet(block_enter=lambda b: seen.append(b)))
    assert trace.block_counts == {"main:entry": 1, "main:walk": 8, "main:odd.path": 4,
                                  "main:even.path": 4, "main:join": 8, "main:done": 1}


def test_step_limit_inside_an_inlined_block():
    m = parse_module(_DIAMOND)
    # entering the third join takes the steps from 45 to 46
    assert ("join", 46) in _diamond_path()
    builder = TraceBuilder(m, CacheModel(CacheConfig()))
    interp = Interpreter(m, limits=RunLimits(max_steps=45), trace=builder)
    with pytest.raises(StepLimitExceeded):
        interp.execute()
    assert interp.steps == 46
    # entry, three walks, odd, even, odd, and two joins were entered
    assert builder.entries == [1, 3, 2, 1, 2, 0]


# --- getelementptr ------------------------------------------------------------

_GEP_LEAVES = st.sampled_from([SCALARS[k] for k in ("i8", "i16", "i32", "i64",
                                                     "float", "double", "ptr")])
_GEP_TYPES = st.recursive(_GEP_LEAVES, lambda inner: st.one_of(
    st.builds(array_of, inner, st.integers(1, 5)),
    st.lists(inner, min_size=1, max_size=3).map(struct_of)), max_leaves=8)


@st.composite
def _gep_index(draw, struct_fields=None):
    """(bits, signed value, is_register); a struct takes a constant field.
    The result wraps to 32 bits, so only i8 and i16 indices would show a
    wrong sign extension."""
    bits = draw(st.sampled_from([8, 16, 32, 64]))
    if struct_fields is not None:
        return bits, draw(st.integers(0, struct_fields - 1)), False
    return bits, draw(st.integers(-(1 << (bits - 1)), (1 << (bits - 1)) - 1)), draw(st.booleans())


@st.composite
def _gep_case(draw):
    src = draw(_GEP_TYPES)
    indices, cur = [draw(_gep_index())], src
    while cur.kind in ("array", "struct") and draw(st.booleans()):
        if cur.kind == "array":
            indices.append(draw(_gep_index()))
            cur = cur.elem
        else:
            indices.append(draw(_gep_index(len(cur.fields))))
            cur = cur.fields[indices[-1][1]]
    return src, indices, draw(st.integers(0, 0xFFFF_FFFF))


@settings(max_examples=150, deadline=None)
@given(_gep_case())
@example((array_of(SCALARS["i32"], 4), [(8, -128, True)], GLOBAL_BASE))
@example((array_of(array_of(SCALARS["i16"], 3), 2),
          [(16, -1, True), (8, -128, True), (16, -32768, True)], 0x1234))
def test_getelementptr_matches_gep_offset(case):
    src, indices, base = case
    params, operands, args = ["ptr %base"], [], [base]
    for k, (bits, value, is_reg) in enumerate(indices):
        if is_reg:
            params.append(f"i{bits} %x{k}")
            operands.append(f"i{bits} %x{k}")
            args.append(value & ((1 << bits) - 1))
        else:
            operands.append(f"i{bits} {value}")
    text = (f"define ptr @main({', '.join(params)}) {{\nentry:\n"
            f"  %q = getelementptr {src!r}, ptr %base, {', '.join(operands)}\n"
            "  ret ptr %q\n}\n")
    got = Interpreter(parse_module(text)).execute("main", tuple(args))
    assert got == (base + gep_offset(src, [v for _, v, _ in indices])) & 0xFFFF_FFFF


def _gep(gep, args=(GLOBAL_BASE, 1)):
    text = (f"define ptr @main(ptr %b, i32 %a) {{\nentry:\n  %q = {gep}\n"
            "  ret ptr %q\n}\n")
    return Interpreter(parse_module(text)).execute("main", args)


def test_getelementptr_shapes_rejected_while_parsing():
    with pytest.raises(ParseError, match="^3:0: index into struct {i8, i64} must be an integer "
                                         "literal$"):
        _gep("getelementptr { i8, i64 }, ptr %b, i32 0, i32 %a")
    with pytest.raises(ParseError, match="^3:0: struct field index 2 out of range for {i8, i64}$"):
        _gep("getelementptr { i8, i64 }, ptr %b, i32 0, i32 2")
    with pytest.raises(ParseError, match="^3:0: struct field index -1 out of range for {i8, i64}$"):
        _gep("getelementptr { i8, i64 }, ptr %b, i32 0, i8 255")
    with pytest.raises(ParseError, match="^3:0: cannot index into type i32$"):
        _gep("getelementptr [2 x i32], ptr %b, i32 %a, i32 1, i32 0")
    # a constant expression is folded by the same routine
    text = ("@g = global { i8, i64 } zeroinitializer\n"
            "@p = global ptr getelementptr ({ i8, i64 }, ptr @g, i32 0, i32 FIELD)\n")
    assert parse_module(text.replace("FIELD", "1")).global_var("p").init.offset == 8
    with pytest.raises(ParseError, match="^2:0: struct field index 2 out of range for {i8, i64}$"):
        parse_module(text.replace("FIELD", "2"))


def test_getelementptr_names_the_first_unresolved_register():
    with pytest.raises(UnresolvedReferenceError, match=r"^unresolved register 'nope' \(line 3\)$"):
        _gep("getelementptr [4 x i32], ptr %b, i32 %a, i32 %nope")
    with pytest.raises(UnresolvedReferenceError, match=r"^unresolved register 'nob' \(line 3\)$"):
        _gep("getelementptr [4 x i32], ptr %nob, i32 %nope, i32 %a")


# --- paths checked against lli --------------------------------------------------
# Each program's main returns what irtime computes here; lli's exit status,
# that result mod 256, must agree.

AGAINST_LLI = {
    # a float store rounds its value to single precision
    "float_store": (_main("  %p = alloca float, align 4\n  %h = fadd float 0.25, 16.5\n"
                          "  store float %h, ptr %p, align 4\n  %x = load float, ptr %p, align 4\n"
                          "  %y = fmul float %x, 4.0\n  %r = fptosi float %y to i32"), 67),
    "float_global_initializer": ("@f = global float 2.5, align 4\n"
                                 + _main("  %g = load float, ptr @f, align 4\n"
                                         "  %h = fmul float %g, 10.0\n"
                                         "  %r = fptosi float %h to i32"), 25),
    # a constant getelementptr as an initializer and as an operand
    "constant_getelementptr": (
        "@arr = global [4 x i32] [i32 10, i32 20, i32 30, i32 40]\n"
        "@third = global ptr getelementptr inbounds ([4 x i32], ptr @arr, i32 0, i32 2)\n"
        + _main("  %p = load ptr, ptr @third\n  %a = load i32, ptr %p\n"
                "  %b = load i32, ptr getelementptr inbounds ([4 x i32], ptr @arr, i32 0, i32 1)\n"
                "  %r = add i32 %a, %b"), 50),
    # libc memcpy returns its destination
    "memcpy_result": (
        "@src = global [4 x i32] [i32 3, i32 5, i32 7, i32 11]\n"
        "declare ptr @memcpy(ptr, ptr, i64)\n"
        + _main("  %buf = alloca [4 x i32]\n"
                "  %d = call ptr @memcpy(ptr %buf, ptr @src, i64 16)\n"
                "  %e = getelementptr [4 x i32], ptr %d, i32 0, i32 3\n  %v = load i32, ptr %e\n"
                "  %f = getelementptr [4 x i32], ptr %buf, i32 0, i32 1\n  %w = load i32, ptr %f\n"
                "  %t = mul i32 %v, 10\n  %r = add i32 %t, %w"), 115),
    # an alloca of four elements: the next alloca does not overlap its second
    "alloca_with_a_count": (_main(
        "  %p = alloca i32, i32 4\n  %o = alloca i32\n  store i32 1, ptr %o\n"
        "  %q = getelementptr i32, ptr %p, i32 1\n  store i32 9, ptr %q\n"
        "  %v = load i32, ptr %q\n  %w = load i32, ptr %o\n  %t = mul i32 %w, 10\n"
        "  %r = add i32 %t, %v"), 19),
    # undef and poison initializers, read where their value cannot change
    # the result
    "undef_and_poison_initializers": (
        "@u = global i32 undef\n@p = global [2 x i32] [i32 7, i32 poison]\n"
        + _main("  %a = load i32, ptr @u\n  %z = and i32 %a, 0\n  %b = load i32, ptr @p\n"
                "  %r = add i32 %z, %b"), 7),
}


@pytest.mark.parametrize("name", AGAINST_LLI)
def test_result_of_each_lli_program(name):
    text, want = AGAINST_LLI[name]
    assert _ret(text) == want


@needs_lli
@pytest.mark.parametrize("name", AGAINST_LLI)
def test_lli_agrees_on_each_program(name):
    text, want = AGAINST_LLI[name]
    assert lli(text) == want % 256


def test_execute_checks_the_argument_count():
    m = parse_module("define i32 @f(i32 %a, i32 %b) {\nentry:\n  %r = add i32 %a, %b\n"
                     "  ret i32 %r\n}\n")
    assert Interpreter(m).execute("f", (2, 3)) == 5
    with pytest.raises(InterpreterError, match=r"^entry '@f' takes 2 arguments, got 1$"):
        Interpreter(m).execute("f", (2,))
