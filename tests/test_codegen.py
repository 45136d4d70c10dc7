"""The interpreter's generated segment functions.

Register names reach the generated source only as string literals, every
constant is bound by name, and an exception that a probe raises passes
through unchanged.  These tests hold the generator to that from outside:
hostile names, special float constants, probes that raise, and the memory
an interpreter leaves behind.  Traces of
programs under hostile names also read back from their files.
"""

import dataclasses
import gc
import math
import pathlib
import re
import struct
import tempfile
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from irtime import Interpreter, ProbeSet, parse_module, read_trace, run, write_trace
from irtime import interp as interp_module
from irtime.corpus import GENERATOR_OPCODES, generate_program
from irtime.errors import DivisionByZero, UnresolvedReferenceError

from conftest import EXAMPLE_B, SAMPLES

SAMPLE_PATHS = sorted(SAMPLES.glob("*.ll"))

# --- renaming every register and label ----------------------------------------

# Names that would break or hijack generated code if pasted into it: a
# quote, a newline, a backslash, and names of the generated code's own
# locals, constants and parameters, and of Python keywords.
HOSTILE = ('a"b', "x\ny", "\\", "r", "k0", "def", "q'", "regs", "v1", "S", "e", "return",
           "None", "}{", "#", "\t")
_NAME = r"[-A-Za-z$._0-9]+"


def _quoted(name):
    """`name` as the body of an IR quoted name."""
    return "".join(c if c.isalnum() and c.isascii() else f"\\{ord(c):02X}" for c in name)


def _rename(text, shift):
    """`text` with every register and label renamed to a hostile quoted
    name, and {old label: new label}."""
    types = set(re.findall(rf"^%({_NAME}) = type", text, re.M))
    labels = set(re.findall(rf"^({_NAME}):", text, re.M))
    m = parse_module(text)
    names = {n for f in m.functions for n, _ in f.params}
    names |= {ins.result for f in m.functions for b in f.blocks for ins in b.instructions
              if ins.result is not None}
    names = sorted((names | labels) - types)
    new = {}
    for i, name in enumerate(names):
        base = HOSTILE[(i + shift) % len(HOSTILE)]
        new[name] = base if i < len(HOSTILE) else f"{base}{i}"
    text = re.sub(rf"%({_NAME})",
                  lambda mt: f'%"{_quoted(new[mt.group(1)])}"' if mt.group(1) in new
                  else mt.group(0), text)
    text = re.sub(rf"^({_NAME}):", lambda mt: f'"{_quoted(new[mt.group(1)])}":'
                  if mt.group(1) in labels else mt.group(0), text, flags=re.M)
    return text, {old: new[old] for old in labels}


def _outcome(text):
    m = parse_module(text)
    return Interpreter(m).execute(), run(m)


def _assert_rename_invariant(text, shift):
    hostile, labels = _rename(text, shift)
    value, trace = _outcome(text)
    got_value, got_trace = _outcome(hostile)
    assert repr(got_value) == repr(value)
    renamed = {}
    for name, count in trace.block_counts.items():
        func, label = name.split(":", 1)
        renamed[f"{func}:{labels.get(label, label)}"] = count
    assert got_trace == dataclasses.replace(trace, block_counts=renamed)


@pytest.mark.parametrize("path", SAMPLE_PATHS, ids=lambda p: p.stem)
def test_samples_run_the_same_under_hostile_names(path):
    for shift in range(3):
        _assert_rename_invariant(path.read_text(), shift)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GENERATOR_OPCODES), st.integers(1, 40), st.integers(0, 2**16),
       st.integers(0, len(HOSTILE) - 1))
def test_generated_programs_run_the_same_under_hostile_names(opcode, n, seed, shift):
    _assert_rename_invariant(generate_program(opcode, n, seed), shift)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from(SAMPLE_PATHS).map(lambda p: p.read_text()),
                 st.builds(generate_program, st.sampled_from(GENERATOR_OPCODES),
                           st.integers(1, 40), st.integers(0, 2**16))),
       st.integers(0, len(HOSTILE) - 1))
def test_traces_read_back_under_hostile_names(text, shift):
    trace = run(parse_module(_rename(text, shift)[0]))
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "t.trace"
        write_trace(trace, path)
        assert read_trace(path) == trace


def test_hostile_names_reach_the_registers():
    text, _ = _rename(EXAMPLE_B, 0)
    assert '%"a\\22b"' in text and '%"x\\0Ay"' in text and '%"\\5C"' in text
    assert _outcome(text)[0] == 45


# --- floats against Python's IEEE double arithmetic ---------------------------

SPECIAL = (0x7FF8000000000000, 0xFFF0000000000000, 0x7FF0000000000000)
SPECIAL_VALUES = tuple(struct.unpack("<d", b.to_bytes(8, "little"))[0] for b in SPECIAL) + (
    -0.0, 0.0, 1e308, -1e308, 1.5, -2.5, 3.4e38, 5e-324)
FLOAT_BINOPS = ("fadd", "fsub", "fmul", "fdiv")
FCMP_PREDS = ("false", "oeq", "ogt", "oge", "olt", "ole", "one", "ord",
              "ueq", "ugt", "uge", "ult", "ule", "une", "uno", "true")


def f32(x):
    try:
        return struct.unpack("<f", struct.pack("<f", x))[0]
    except OverflowError:
        return math.copysign(math.inf, x)


def ref_float_op(op, a, b, ty):
    if op == "fneg":
        r = -a
    elif op == "fdiv" and b == 0.0:
        r = math.nan if a == 0.0 or math.isnan(a) else math.copysign(
            math.inf, math.copysign(1.0, a) * math.copysign(1.0, b))
    else:
        r = {"fadd": a + b, "fsub": a - b, "fmul": a * b,
             "fdiv": a / b if b != 0.0 else None}[op]
    return f32(r) if ty == "float" else r


def ref_fcmp(pred, a, b):
    unordered = math.isnan(a) or math.isnan(b)
    if pred in ("false", "true"):
        return int(pred == "true")
    if pred in ("ord", "uno"):
        return int(unordered == (pred == "uno"))
    holds = {"eq": a == b, "ne": a != b, "gt": a > b, "ge": a >= b, "lt": a < b,
             "le": a <= b}[pred[1:]]
    return int(unordered or holds) if pred[0] == "u" else int(not unordered and holds)


def _literal(value):
    """An IR literal for a double: decimal when finite, else its bits."""
    if math.isfinite(value):
        return repr(value)
    return "0x%016X" % int.from_bytes(struct.pack("<d", value), "little")


def _same_float(got, want):
    """Equal bits, or both NaN."""
    return (math.isnan(got) and math.isnan(want)) or struct.pack("<d", got) == struct.pack("<d", want)


def _floats(ty):
    values = st.floats(width=32) if ty == "float" else st.floats()
    return st.one_of(st.sampled_from(SPECIAL_VALUES).map(lambda v: f32(v) if ty == "float" and
                                                         math.isfinite(v) else v), values)


def _run(params, body, ret_ty, args):
    text = (f"define {ret_ty} @f({', '.join(params)}) {{\nentry:\n  {body}\n"
            f"  ret {ret_ty} %r\n}}\n")
    return Interpreter(parse_module(text)).execute("f", args)


def _operands(ty, a, b, reg_a, reg_b):
    params = [f"{ty} %a", f"{ty} %b"]
    return params, ("%a" if reg_a else _literal(a)), ("%b" if reg_b else _literal(b))


FLOAT_OPS = FLOAT_BINOPS + ("fneg",) + FCMP_PREDS


@pytest.mark.parametrize("op", FLOAT_OPS)
def test_float_ops_on_special_constants(op):
    # each pair of constants, one operand inline and the other a register
    for a in SPECIAL_VALUES:
        for b in SPECIAL_VALUES:
            _check_float_op(op, "double", a, b, False, True)
            _check_float_op(op, "float", f32(a), f32(b), True, False)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(FLOAT_OPS), st.sampled_from(("float", "double")), st.data())
def test_float_ops_match_python(op, ty, data):
    a, b = data.draw(_floats(ty)), data.draw(_floats(ty))
    _check_float_op(op, ty, a, b, data.draw(st.booleans()), data.draw(st.booleans()))


def _check_float_op(op, ty, a, b, reg_a, reg_b):
    params, x, y = _operands(ty, a, b, reg_a, reg_b)
    if op in FCMP_PREDS:
        got = _run(params, f"%r = fcmp {op} {ty} {x}, {y}", "i1", (a, b))
        assert got == ref_fcmp(op, a, b), (op, a, b)
    elif op == "fneg":
        got = _run(params, f"%r = fneg {ty} {x}", ty, (a, b))
        assert _same_float(got, ref_float_op(op, a, b, ty)), (op, a)
    else:
        got = _run(params, f"%r = {op} {ty} {x}, {y}", ty, (a, b))
        assert _same_float(got, ref_float_op(op, a, b, ty)), (op, ty, a, b)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("float", "double")), st.sampled_from((1, 8, 16, 32, 64)), st.data())
def test_float_casts_match_python(ty, bits, data):
    mask = (1 << bits) - 1
    f = data.draw(_floats(ty))
    reg = data.draw(st.booleans())
    x = "%a" if reg else _literal(f)
    got = _run([f"{ty} %a"], f"%r = fptosi {ty} {x} to i{bits}", f"i{bits}", (f,))
    assert got == ((int(f) if math.isfinite(f) else 0) & mask)
    v = data.draw(st.integers(0, mask))
    x = "%a" if reg else str(v)
    signed = v - (1 << bits) if v >> (bits - 1) else v
    for op, want in (("uitofp", float(v)), ("sitofp", float(signed))):
        got = _run([f"i{bits} %a"], f"%r = {op} i{bits} {x} to {ty}", ty, (v,))
        assert _same_float(got, f32(want) if ty == "float" else want), (op, v)


# --- errors ---------------------------------------------------------------------

PROBED = """
@g = global i32 0
declare void @llvm.memset.p0.i32(ptr, i8, i32, i1)

define i32 @f(i32 %n, i32 %k, i32 %j) {
entry:
  br label %body

body:
  %m = phi i32 [ %n, %entry ]
  store i32 %m, ptr @g
  %v = load i32, ptr @g
  call void @llvm.memset.p0.i32(ptr @g, i8 0, i32 %k, i1 false)
  %c = icmp eq i32 %v, %n
  br i1 %c, label %yes, label %no

yes:
  %w = phi i32 [ %j, %body ]
  ret i32 %w

no:
  ret i32 0
}

define i32 @main() {
entry:
  %r = call i32 @f(i32 5, i32 4, i32 9)
  ret i32 %r
}
"""


# Which event of each kind raises: one in @f, next to register reads.
# The third block entry is f:body, the third instruction event its phi.
_RAISING_EVENT = {"block_enter": 3, "instruction": 3, "load": 1, "store": 1,
                  "cond_branch": 1, "mem_intrinsic": 1}


@pytest.mark.parametrize("kind", sorted(_RAISING_EVENT))
def test_a_probes_key_error_passes_through(kind):
    # the key is a register the program reads, so a generator that turned
    # a KeyError into a missing register would report it as one
    calls = []

    def probe(*args):
        calls.append(args)
        if len(calls) == _RAISING_EVENT[kind]:
            raise KeyError("n")
    module = parse_module(PROBED)
    assert run(module).op_counts["phi"] == 2
    with pytest.raises(KeyError) as info:
        run(module, probes=ProbeSet(**{kind: probe}))
    assert info.type is KeyError and info.value.args == ("n",)


def test_an_unassigned_register_is_rejected_while_parsing():
    text = """
@g = global i32 0

define i32 @main() {
entry:
  store i32 5, ptr @g
  %v = add i32 %missing, 1
  ret i32 %v
}
"""
    with pytest.raises(UnresolvedReferenceError,
                       match=r"^unresolved register 'missing' \(line 7\)$") as info:
        parse_module(text)
    assert info.value.line == 7


def _sources(monkeypatch):
    """The list each generated source is appended to from now on."""
    sources, compile_source = [], interp_module._compile
    monkeypatch.setattr(interp_module, "_compile",
                        lambda source: sources.append(source) or compile_source(source))
    return sources


def test_generated_source_catches_no_exception(monkeypatch):
    # the parser has checked that every register read is dominated by its
    # definition, so the only `try` is a loop function's, with a `finally`
    sources = _sources(monkeypatch)
    for path in SAMPLE_PATHS:
        run(parse_module(path.read_text()))
    text = "\n".join(sources)
    assert re.search(r"\bexcept\b|UNRES|KeyError", text) is None
    assert text.count("try:") == text.count("finally:") == text.count("while True:") > 0



def test_a_store_masks_only_what_no_integer_instruction_masked(monkeypatch):
    # %x and %b come from an add of their own width, so their stores carry
    # no `&`; %n is read from a register and %z is a zext's copy of %b, so
    # theirs keep one
    sources = _sources(monkeypatch)
    module = parse_module("""
define i32 @main(i32 %n) {
entry:
  %p = alloca [4 x i32]
  %x = add i32 %n, 7
  store i32 %x, ptr %p
  %q = getelementptr i32, ptr %p, i32 1
  store i32 %n, ptr %q
  %b = add i8 255, 3
  %q2 = getelementptr i32, ptr %p, i32 2
  store i8 %b, ptr %q2
  %z = zext i8 %b to i32
  %q3 = getelementptr i32, ptr %p, i32 3
  store i32 %z, ptr %q3
  %l0 = load i32, ptr %p
  %l1 = load i32, ptr %q
  %l2 = load i32, ptr %q3
  %s = add i32 %l0, %l1
  %r = add i32 %s, %l2
  ret i32 %r
}
""")
    assert Interpreter(module).execute("main", (5,)) == 12 + 5 + 2
    stored = re.findall(r"ST\(v\d+, \d, P\w, (.*?), O\d\)", sources[-1])
    assert [re.sub(r"v\d+", "v", value) for value in stored] == [
        "v", "v & 4294967295", "v", "v & 4294967295"]


# --- division and shifts by a constant ---------------------------------------

DIVISIONS = ("udiv", "sdiv", "urem", "srem")


def _function(ty, body):
    return parse_module(f"define {ty} @f({ty} %a, {ty} %b) {{\nentry:\n  {body}\n"
                        f"  ret {ty} %r\n}}\n")


@pytest.mark.parametrize("op", DIVISIONS + ("ashr",))
def test_a_constant_divisor_or_shift_amount_calls_no_helper(op, monkeypatch):
    sources = _sources(monkeypatch)
    for k in (7, -7, 1, 40):
        Interpreter(_function("i32", f"%r = {op} i32 %a, {k}"))
        assert re.search(r"\b(DIV|SGN|min)\(", sources[-1]) is None, (op, k)
    if op != "ashr":
        # a register or zero divisor is divided when the instruction runs,
        # so that a zero raises DivisionByZero there
        for b in ("%b", "0"):
            Interpreter(_function("i32", f"%r = {op} i32 %a, {b}"))
            assert "DIV(" in sources[-1], (op, b)


def test_a_constant_float_divisor_calls_no_helper(monkeypatch):
    sources = _sources(monkeypatch)
    for ty in ("float", "double"):
        for b, helper in (("2.5", False), ("-0.0", True), ("0.0", True), ("%b", True)):
            Interpreter(_function(ty, f"%r = fdiv {ty} %a, {b}"))
            assert ("FDIV(" in sources[-1]) == helper, (ty, b)
            assert ("F32(" in sources[-1]) == (ty == "float"), (ty, b)


def _result(module, a, b):
    """What @f returns for %a = a and %b = b, or the DivisionByZero's message."""
    try:
        return Interpreter(module).execute("f", (a, b))
    except DivisionByZero as e:
        return str(e)


@pytest.mark.parametrize("bits", (1, 8, 32, 64))
@pytest.mark.parametrize("op", DIVISIONS + ("ashr",))
def test_a_constant_divisor_gives_what_a_register_gives(op, bits):
    # each value as a bit pattern of the width, so at i1 the divisors 2 and
    # -2 are a constant zero, and 1 and INT_MIN are -1
    ty, int_min, mask = f"i{bits}", 1 << (bits - 1), (1 << bits) - 1
    divisors = sorted({v & mask for v in (1, -1, 2, -2, 7, int_min)})
    dividends = sorted({v & mask for v in (0, 7, -7, int_min, int_min - 1, -1)})
    register = _function(ty, f"%r = {op} {ty} %a, %b")
    for b in divisors:
        constant = _function(ty, f"%r = {op} {ty} %a, {b}")
        for a in dividends:
            assert _result(constant, a, 0) == _result(register, a, b), (a, b)


@pytest.mark.parametrize("body", ["%r = sdiv i32 %a, 7", "%r = ashr i32 %a, 1",
                                  "%r = udiv i32 %a, %b", "%r = srem i32 %a, %b"])
def test_an_argument_is_taken_as_its_bit_pattern(body):
    module = _function("i32", body)
    assert _result(module, -5, -7) == _result(module, 2**32 - 5, 2**32 - 7)


def test_a_float_argument_is_rounded_to_32_bits():
    # 0x3FB99999A0000000 is 0.1 rounded to float
    compare = parse_module("define i1 @f(float %a) {\nentry:\n"
                           "  %r = fcmp oeq float %a, 0x3FB99999A0000000\n  ret i1 %r\n}\n")
    assert Interpreter(compare).execute("f", (0.1,)) == 1
    same = parse_module("define float @f(float %a) {\nentry:\n  ret float %a\n}\n")
    assert Interpreter(same).execute("f", (0.1,)) == f32(0.1)


# --- memory ---------------------------------------------------------------------

LOOP_AND_CALL = EXAMPLE_B.replace("define i32 @main()", "define i32 @sum()") + """
define i32 @main() {
entry:
  %p = alloca i32
  %s = call i32 @sum()
  store i32 %s, ptr %p
  %r = load i32, ptr %p
  ret i32 %r
}
"""


@pytest.mark.parametrize("probed", [False, True])
def test_an_interpreter_is_freed_without_the_cycle_collector(probed):
    module = parse_module(LOOP_AND_CALL)
    gc.collect()
    gc.disable()
    try:
        interp = Interpreter(module, ProbeSet(block_enter=lambda b: None) if probed else None)
        assert interp.execute() == 45
        alive = weakref.ref(interp), weakref.ref(interp.memory)
        del interp
        assert [ref() for ref in alive] == [None, None]
    finally:
        gc.enable()


# --- switch -----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 5)), max_size=40,
                unique_by=lambda case: case[0]),
       st.lists(st.integers(0, 63), min_size=1, max_size=8))
def test_switch_takes_the_case_of_its_value(cases, probes):
    # label t0 is the default, which a case may name too; a repeated case
    # value is a ParseError (test_parser.py)
    table = "\n".join(f"    i32 {v}, label %t{t}" for v, t in cases)
    targets = "\n".join(f"t{t}:\n  ret i32 {t}" for t in range(6))
    text = (f"define i32 @main(i32 %x) {{\nentry:\n  switch i32 %x, label %t0 [\n{table}\n  ]\n"
            f"{targets}\n}}\n")
    interp = Interpreter(parse_module(text))
    for x in probes:
        assert interp.execute("main", (x,)) == dict(cases).get(x, 0)
