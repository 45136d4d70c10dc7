import pathlib
import shutil
import subprocess

import pytest

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"

# LLVM's assembler and interpreter, the reference for what parses and what
# it computes; a test that needs one skips when it is not installed
LLVM_AS = shutil.which("llvm-as")
LLI = shutil.which("lli")
needs_llvm_as = pytest.mark.skipif(LLVM_AS is None, reason="llvm-as is not installed")
needs_lli = pytest.mark.skipif(LLI is None, reason="lli is not installed")


def llvm_as(text):
    """llvm-as's first line of complaint about `text`, or None when it
    accepts it."""
    done = subprocess.run([LLVM_AS, "-opaque-pointers", "-o", "/dev/null", "-"],
                          input=text, capture_output=True, text=True, timeout=60)
    return done.stderr.strip().splitlines()[0] if done.returncode else None


def lli(text):
    """The exit status of `lli` running the module `text`: the result of its
    main, mod 256."""
    return subprocess.run([LLI, "-opaque-pointers", "-"], input=text, capture_output=True,
                          text=True, timeout=60).returncode


def gep_offset(source_type, indices):
    """The byte offset getelementptr computes, the reference the
    interpreter's is checked against: the first index scales by the whole
    source type, each later one steps into an array or a struct.  Indices
    are signed Python ints, and there is at least one."""
    offset, cur = indices[0] * source_type.size(), source_type
    for idx in indices[1:]:
        if cur.kind == "array":
            offset, cur = offset + idx * cur.elem.size(), cur.elem
        else:
            offset, cur = offset + cur.field_offset(idx), cur.fields[idx]
    return offset


# Minimal module: a single empty main.
EXAMPLE_A = """
define i32 @main() {
entry:
  ret i32 0
}
"""

# Counted loop summing 0..9; the standard hand-count oracle used across
# the interpreter, predictor and trace tests.
EXAMPLE_B = """
define i32 @main() {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %i.next, %loop ]
  %s = phi i32 [ 0, %entry ], [ %s.next, %loop ]
  %s.next = add i32 %s, %i
  %i.next = add i32 %i, 1
  %cond = icmp slt i32 %i.next, 10
  br i1 %cond, label %loop, label %exit

exit:
  ret i32 %s.next
}
"""


@pytest.fixture
def example_a():
    from irtime import parse_module
    return parse_module(EXAMPLE_A, source_name="example_a")


@pytest.fixture
def example_b():
    from irtime import parse_module
    return parse_module(EXAMPLE_B, source_name="example_b")


@pytest.fixture
def samples_dir():
    return SAMPLES
