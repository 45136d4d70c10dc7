"""Integer instructions against Python reference semantics.

Every operand is tried both as a register (an argument of the function) and
as an inline constant, since the two are decoded into different forms.
Values are unsigned bit patterns; the references below reinterpret them as
two's complement where an instruction is signed and wrap every result.
"""

from fractions import Fraction
import math

from hypothesis import given, settings, strategies as st

from irtime import Interpreter, parse_module

WIDTHS = (1, 8, 16, 32, 64)
BINOPS = ("add", "sub", "mul", "udiv", "sdiv", "urem", "srem",
          "and", "or", "xor", "shl", "lshr", "ashr")
ICMP_PREDS = ("eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge", "slt", "sle")


def signed(v, bits):
    return v - (1 << bits) if v >> (bits - 1) else v


def ref_binop(op, a, b, bits):
    sa, sb = signed(a, bits), signed(b, bits)
    result = {
        "add": lambda: a + b,
        "sub": lambda: a - b,
        "mul": lambda: a * b,
        "udiv": lambda: a // b,
        "urem": lambda: a % b,
        "sdiv": lambda: math.trunc(Fraction(sa, sb)),
        "srem": lambda: sa - sb * math.trunc(Fraction(sa, sb)),
        "and": lambda: a & b,
        "or": lambda: a | b,
        "xor": lambda: a ^ b,
        "shl": lambda: a * 2 ** b if b < bits else 0,
        "lshr": lambda: a // 2 ** b if b < bits else 0,
        "ashr": lambda: math.floor(Fraction(sa, 2 ** min(b, bits - 1))),
    }[op]()
    return result % 2 ** bits


def ref_icmp(pred, a, b, bits):
    if pred[0] == "s":
        a, b = signed(a, bits), signed(b, bits)
    return int({"eq": a == b, "ne": a != b, "gt": a > b, "ge": a >= b,
                "lt": a < b, "le": a <= b}[pred[-2:]])


def execute(ret_ty, arg_ty, body, args):
    """Run `body` with %a and %b as i<arg_ty> arguments, returning %r."""
    text = (f"define {ret_ty} @f({arg_ty} %a, {arg_ty} %b) {{\n"
            f"entry:\n  {body}\n  ret {ret_ty} %r\n}}\n")
    return Interpreter(parse_module(text)).execute("f", args)


def operand(name, value, as_register):
    return f"%{name}" if as_register else str(value)


@st.composite
def operands(draw, bits, nonzero_b=False):
    a = draw(st.integers(0, 2 ** bits - 1))
    b = draw(st.integers(1 if nonzero_b else 0, 2 ** bits - 1))
    return a, b, draw(st.booleans()), draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BINOPS), st.sampled_from(WIDTHS), st.data())
def test_integer_binops(op, bits, data):
    if op in ("shl", "lshr", "ashr"):
        a, _, reg_a, reg_b = data.draw(operands(bits))
        b = data.draw(st.integers(0, min(bits + 2, 2 ** bits - 1)))
    else:
        a, b, reg_a, reg_b = data.draw(operands(bits, nonzero_b=op.endswith(("div", "rem"))))
    ty = f"i{bits}"
    body = f"%r = {op} {ty} {operand('a', a, reg_a)}, {operand('b', b, reg_b)}"
    assert execute(ty, ty, body, (a, b)) == ref_binop(op, a, b, bits)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ICMP_PREDS), st.sampled_from(WIDTHS), st.data())
def test_icmp_predicates(pred, bits, data):
    a, b, reg_a, reg_b = data.draw(operands(bits))
    if data.draw(st.booleans()):
        b = a    # equal operands exercise the non-strict predicates
    ty = f"i{bits}"
    body = f"%r = icmp {pred} {ty} {operand('a', a, reg_a)}, {operand('b', b, reg_b)}"
    assert execute("i1", ty, body, (a, b)) == ref_icmp(pred, a, b, bits)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("zext", "sext")),
       st.sampled_from([(s, d) for s in WIDTHS for d in WIDTHS if s < d]),
       st.data())
def test_zext_sext(op, widths, data):
    src, dst = widths
    v = data.draw(st.integers(0, 2 ** src - 1))
    reg = data.draw(st.booleans())
    body = f"%r = {op} i{src} {operand('a', v, reg)} to i{dst}"
    want = v if op == "zext" else signed(v, src) % 2 ** dst
    assert execute(f"i{dst}", f"i{src}", body, (v, 0)) == want
