"""Synthetic corpus generator: one arithmetic opcode repeated N times in a loop.

Each program is a self-contained module with a counted loop whose body
executes the target opcode exactly once per iteration, so the opcode's
dynamic count scales linearly with N.  Division and remainder bodies use a
constant nonzero divisor, shifts use a constant in-range amount, so every
generated file simulates without faulting.  The seed perturbs the embedded
constants, giving distinct but reproducible programs.
"""

import zlib
from pathlib import Path

from .errors import InvalidConfigError, UnsupportedOpcodeError
from .trace import write_lines

INT_ACC_OPS = ("add", "sub", "mul", "and", "or", "xor")
SHIFT_OPS = ("shl", "lshr", "ashr")
DIV_OPS = ("sdiv", "udiv", "srem", "urem")
WIDEN_OPS = ("zext", "sext")
FLOAT_ACC_OPS = ("fadd", "fsub", "fmul", "fdiv")
TO_FP_OPS = ("uitofp", "sitofp")

GENERATOR_OPCODES = (
    INT_ACC_OPS + SHIFT_OPS + DIV_OPS + WIDEN_OPS + FLOAT_ACC_OPS + TO_FP_OPS
    + ("icmp", "fcmp", "fptosi", "fneg")
)


def _mix(opcode: str, n: int, seed: int, lo: int, hi: int) -> int:
    """Deterministic constant in [lo, hi] derived from the program identity."""
    digest = zlib.crc32(f"{opcode}:{n}:{seed}".encode())
    return lo + digest % (hi - lo + 1)


def generate_program(opcode: str, n: int, seed: int = 0) -> str:
    """Text of a module whose main loop runs `opcode` n times."""
    if opcode not in GENERATOR_OPCODES:
        raise UnsupportedOpcodeError(opcode)
    if n <= 0:
        raise InvalidConfigError(f"iteration count must be positive, got {n}")

    needs_facc = opcode in FLOAT_ACC_OPS or opcode in TO_FP_OPS or opcode in ("fneg", "fcmp")
    needs_acc64 = opcode in WIDEN_OPS
    needs_acc = not (needs_facc or needs_acc64) or opcode == "fcmp"
    # fcmp folds its i1 into the integer accumulator
    if opcode == "fcmp":
        needs_facc = False

    start = _mix(opcode, n, seed, 1, 9973)
    body = []
    ret_val = "0"

    if opcode in INT_ACC_OPS:
        body.append(f"  %acc.next = {opcode} i32 %acc, %i")
        ret_val = "%acc.next"
    elif opcode in SHIFT_OPS:
        amt = _mix(opcode, n, seed, 1, 7)
        body.append(f"  %acc.next = {opcode} i32 %i, {amt}")
        ret_val = "%acc.next"
    elif opcode in DIV_OPS:
        divisor = _mix(opcode, n, seed, 3, 97) | 1
        body.append(f"  %acc.next = {opcode} i32 %i, {divisor}")
        ret_val = "%acc.next"
    elif opcode in WIDEN_OPS:
        body.append(f"  %w = {opcode} i32 %i to i64")
        body.append("  %acc64.next = add i64 %acc64, %w")
    elif opcode in FLOAT_ACC_OPS:
        c = _mix(opcode, n, seed, 3, 40)
        body.append(f"  %facc.next = {opcode} double %facc, {c}.5")
    elif opcode in TO_FP_OPS:
        body.append(f"  %f = {opcode} i32 %i to double")
        body.append("  %facc.next = fadd double %facc, %f")
    elif opcode == "fneg":
        body.append("  %t = fneg double %facc")
        body.append("  %facc.next = fadd double %t, 1.5")
    elif opcode == "fptosi":
        body.append("  %f = sitofp i32 %i to double")
        body.append("  %t = fptosi double %f to i32")
        body.append("  %acc.next = add i32 %acc, %t")
        ret_val = "%acc.next"
    elif opcode == "icmp":
        pivot = _mix(opcode, n, seed, 1, max(n, 2))
        body.append(f"  %p = icmp ult i32 %i, {pivot}")
        body.append("  %pz = zext i1 %p to i32")
        body.append("  %acc.next = add i32 %acc, %pz")
        ret_val = "%acc.next"
    elif opcode == "fcmp":
        pivot = _mix(opcode, n, seed, 1, max(n, 2))
        body.append("  %f = sitofp i32 %i to double")
        body.append(f"  %p = fcmp olt double %f, {pivot}.0")
        body.append("  %pz = zext i1 %p to i32")
        body.append("  %acc.next = add i32 %acc, %pz")
        ret_val = "%acc.next"

    phis = []
    if needs_acc:
        phis.append(f"  %acc = phi i32 [ {start}, %entry ], [ %acc.next, %loop ]")
    if needs_acc64:
        phis.append(f"  %acc64 = phi i64 [ {start}, %entry ], [ %acc64.next, %loop ]")
    if needs_facc:
        phis.append(f"  %facc = phi double [ {start}.25, %entry ], [ %facc.next, %loop ]")

    lines = [
        f"; loop corpus program: {opcode} x {n}",
        "",
        "define i32 @main() {",
        "entry:",
        "  br label %loop",
        "",
        "loop:",
        "  %i = phi i32 [ 0, %entry ], [ %i.next, %loop ]",
    ]
    lines.extend(phis)
    lines.extend(body)
    lines.extend([
        "  %i.next = add i32 %i, 1",
        f"  %cond = icmp slt i32 %i.next, {n}",
        "  br i1 %cond, label %loop, label %exit",
        "",
        "exit:",
        f"  ret i32 {ret_val}",
        "}",
        "",
    ])
    return "\n".join(lines)


def generate_corpus(opcodes, counts, seed, out_dir) -> list:
    """Write {opcode}_{n}.ll for every (opcode, n) pair; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for opcode in opcodes:
        for n in counts:
            text = generate_program(opcode, n, seed)
            path = out / f"{opcode}_{n}.ll"
            write_lines(path, [text.rstrip("\n")])
            paths.append(path)
    return paths
