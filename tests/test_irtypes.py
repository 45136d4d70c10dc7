import pytest

from irtime.irtypes import (
    I1, I8, I16, I32, I64, FLOAT, DOUBLE, PTR, VOID,
    array_of, struct_of, POINTER_BYTES,
)

from conftest import gep_offset


def test_scalar_sizes():
    assert I1.size() == 1
    assert I8.size() == 1
    assert I16.size() == 2
    assert I32.size() == 4
    assert I64.size() == 8
    assert FLOAT.size() == 4
    assert DOUBLE.size() == 8
    assert PTR.size() == POINTER_BYTES == 4


def test_int_bits():
    assert I1.int_bits == 1
    assert I64.int_bits == 64
    assert I32.is_int() and not I32.is_float()
    assert DOUBLE.is_float() and not DOUBLE.is_int()


def test_array_layout():
    a = array_of(I32, 10)
    assert a.size() == 40
    assert a.alignment() == 4
    nested = array_of(array_of(I8, 3), 4)
    assert nested.size() == 12


def test_struct_padding():
    # {i8, i32} pads the first field out to the i32 alignment
    s = struct_of((I8, I32))
    assert s.field_offset(0) == 0
    assert s.field_offset(1) == 4
    assert s.size() == 8
    assert s.alignment() == 4


def test_struct_tail_padding():
    # {i32, i8} pads the tail so arrays of the struct stay aligned
    s = struct_of((I32, I8))
    assert s.size() == 8
    assert array_of(s, 3).size() == 24


def test_struct_with_double():
    s = struct_of((I8, DOUBLE, I16))
    assert s.field_offset(1) == 8
    assert s.field_offset(2) == 16
    assert s.size() == 24
    assert s.alignment() == 8


def test_gep_offset_array():
    a = array_of(I32, 10)
    # first index steps over whole objects of the source type
    assert gep_offset(a, [0, 3]) == 12
    assert gep_offset(a, [1, 0]) == 40
    assert gep_offset(a, [0, 0]) == 0


def test_gep_offset_struct():
    s = struct_of((I8, I32, I64))
    assert gep_offset(s, [0, 0]) == 0
    assert gep_offset(s, [0, 1]) == 4
    assert gep_offset(s, [0, 2]) == 8


def test_gep_offset_scalar_and_negative():
    assert gep_offset(I32, [5]) == 20
    assert gep_offset(I32, [-2]) == -8


def test_gep_offset_nested():
    inner = struct_of((I32, I32))
    outer = array_of(inner, 8)
    assert gep_offset(outer, [0, 2, 1]) == 2 * 8 + 4


def test_void_has_no_size():
    with pytest.raises(Exception):
        VOID.size()


def test_layout_is_linear_in_nesting_depth():
    # each struct holds two copies of the one before: recomputing member
    # layouts on every query costs time exponential in the depth (seconds
    # at depth 16), computing each once while parsing stays instant
    import time

    from irtime import Interpreter, parse_module

    depth = 40
    types = ["%t0 = type { i32, i8 }"] + [
        f"%t{k} = type {{ %t{k - 1}, %t{k - 1} }}" for k in range(1, depth + 1)]
    text = "\n".join(types) + f"""

define i32 @main(ptr %p, i32 %i) {{
entry:
  %q = getelementptr %t{depth}, ptr %p, i32 %i, i32 1, i32 0, i32 1
  %v = load %t{depth}, ptr %p
  ret i32 0
}}
"""
    t0 = time.perf_counter()
    module = parse_module(text)
    Interpreter(module)
    assert time.perf_counter() - t0 < 2.0
    gep = module.functions[0].blocks[0].instructions[0]
    assert gep.source_type.size() == 8 << depth and gep.source_type.alignment() == 4
    offset, ((index, bits, stride),) = gep.gep
    assert (offset, index.name, bits, stride) == (
        (8 << (depth - 1)) + (8 << (depth - 3)), "i", 32, 8 << depth)
