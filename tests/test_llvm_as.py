"""What the parser accepts, LLVM's own assembler accepts too.

Each line mutant of a sample (see test_mutants.py) that parse_module accepts
must also pass `llvm-as -opaque-pointers`.  Two leniencies are allowed, both
in the calls to the routines the interpreter models: such a routine may be
called without its `declare`, and its `declare` may be given twice.  The
whole set of line mutants takes a few seconds of `llvm-as` calls, so this
takes a seeded sample of it.  The parser's dominance cases are checked
against `llvm-as` in both directions, and so is a seeded sample of block
mutants: a sample with one defining instruction moved into another block,
which breaks dominance across blocks or keeps it, and where irtime and
LLVM must agree either way.
"""

import random
import re

import pytest

from irtime import parse_module
from irtime.errors import IrTimeError
from irtime.irmodel import is_recognized_callee

from conftest import SAMPLES, llvm_as, needs_llvm_as
from test_mutants import _line_mutants
from test_parser import STRUCTURAL_FAULTS

pytestmark = needs_llvm_as

SAMPLE_SIZE = 60
BLOCK_SAMPLE_SIZE = 40

# the two leniencies, each naming the routine that LLVM finds undeclared or
# declared twice
_LENIENCIES = re.compile(r"error: (?:use of undefined value '@|invalid redefinition of "
                         r"function ')([^']+)'")

# the cases of test_parser that break SSA dominance
DOMINANCE_FAULTS = ["undefined_register", "register_used_before_its_definition",
                    "register_used_by_its_own_definition",
                    "register_used_where_its_block_does_not_dominate",
                    "phi_operand_its_block_does_not_dominate",
                    "register_defined_in_an_unreachable_block"]

# a use in a block that the entry does not reach, of a register defined
# after it, and of one defined in a block that does not dominate it
UNREACHABLE_USES = """
define i32 @main(i32 %n) {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %i.next, %loop ]
  %i.next = add i32 %i, 1
  %go = icmp ult i32 %i.next, %n
  br i1 %go, label %loop, label %exit
dead:
  %y = add i32 %z, %i.next
  %z = add i32 %y, 1
  br label %exit
exit:
  %r = phi i32 [ %i.next, %loop ], [ %z, %dead ]
  ret i32 %r
}
"""


_PHI = re.compile(r"%[-\w.$]+ = phi\b")
_DEFINITION = re.compile(r"%[-\w.$]+ = ")


def _block_mutants(lines):
    """Each defining instruction but a phi moved to just after the phis of
    another block of its function."""
    blocks, moves = [], []      # blocks: [function number, insertion line]
    function, inside, block = 0, False, None
    for i, line in enumerate(lines):
        code = line.split(";", 1)[0].strip()
        if line.startswith("define"):
            function, inside, block = function + 1, True, None
        elif code == "}":
            inside = False
        elif inside and code:
            if code.endswith(":"):
                block = [function, i + 1]
                blocks.append(block)
                continue
            if block is None:       # the unnamed entry
                block = [function, i]
                blocks.append(block)
            if _PHI.match(code):
                block[1] = i + 1
            elif _DEFINITION.match(code):
                moves.append((i, block))
    for i, home in moves:
        for target in blocks:
            if target is not home and target[0] == home[0]:
                mutant = lines[:i] + lines[i + 1:]
                mutant.insert(target[1] - (target[1] > i), lines[i])
                yield f"line {i + 1} moved before line {target[1] + 1}", mutant


def _sampled_mutants():
    mutants = [(f"{path.name} with {what}", "\n".join(lines))
               for path in sorted(SAMPLES.glob("*.ll"))
               for what, lines in _line_mutants(path.read_text().split("\n"))]
    return random.Random(20011).sample(mutants, SAMPLE_SIZE)


def test_line_mutants_that_parse_pass_llvm_as():
    accepted, disagreements = 0, []
    for what, text in _sampled_mutants():
        try:
            parse_module(text)
        except IrTimeError:
            continue
        accepted += 1
        complaint = llvm_as(text)
        if complaint is None:
            continue
        lenient = _LENIENCIES.search(complaint)
        if lenient is None or not is_recognized_callee(lenient.group(1)):
            disagreements.append(f"{what}: {complaint}")
    assert accepted >= SAMPLE_SIZE // 5
    assert disagreements == []


@pytest.mark.parametrize("name", DOMINANCE_FAULTS)
def test_llvm_as_rejects_each_dominance_fault(name):
    text = STRUCTURAL_FAULTS[name]
    with pytest.raises(IrTimeError):
        parse_module(text)
    assert llvm_as(text) is not None


def test_llvm_as_accepts_any_use_in_an_unreachable_block():
    parse_module(UNREACHABLE_USES)
    assert llvm_as(UNREACHABLE_USES) is None


def test_block_mutants_agree_with_llvm_as():
    mutants = [(f"{path.name} with {what}", "\n".join(lines))
               for path in sorted(SAMPLES.glob("*.ll"))
               for what, lines in _block_mutants(path.read_text().split("\n"))]
    verdicts, disagreements = set(), []
    for what, text in random.Random(2026).sample(mutants, BLOCK_SAMPLE_SIZE):
        try:
            parse_module(text)
            ours = None
        except IrTimeError as exc:
            ours = str(exc)
        theirs = llvm_as(text)
        verdicts.add(ours is None)
        if (ours is None) != (theirs is None):
            disagreements.append(f"{what}: irtime {ours or 'accepts'}, "
                                 f"llvm-as {theirs or 'accepts'}")
    assert verdicts == {True, False}
    assert disagreements == []


def test_llvm_as_rejects_a_label_repeating_the_unnamed_entrys_number():
    text = STRUCTURAL_FAULTS["label_repeating_the_unnamed_entrys_number"]
    with pytest.raises(IrTimeError, match="duplicate block label '%0'"):
        parse_module(text)
    assert "label expected to be numbered" in llvm_as(text)
