"""Mutants of the sample programs fail only with an IrTimeError.

A mutant is a sample with one line deleted, duplicated or swapped with the
next one, or with one token replaced, deleted or inserted.  It either fails
parse_module with an IrTimeError, or it runs until it returns or raises an
IrTimeError.  Nothing else may escape either stage.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from irtime import RunLimits, parse_module, run
from irtime.errors import IrTimeError

from conftest import SAMPLES

SAMPLE_PATHS = sorted(SAMPLES.glob("*.ll"))
TEXTS = [p.read_text() for p in SAMPLE_PATHS]
LIMITS = RunLimits(max_steps=10**5)

_TOKEN_RE = re.compile(r'c?"[^"\n]*"|[%@][-\w.$]+|[-\w.$]+|\S')

# Tokens that are wrong in many places.  Numbers stay small or far above
# every limit, so that no mutant allocates much memory before it fails.
EXTRA_TOKENS = [
    "i1", "i8", "i32", "i64", "float", "double", "ptr", "void", "label",
    "[2 x i32]", "{ i8, i64 }", "0", "1", "-1", "2", "1.5", "0x10",
    "4294967295", "%nope", "@nope", "@main", "%0", "true", "null",
    "zeroinitializer", "undef", ",", "(", ")", "[", "]",
]


def _check(text, what):
    """Parse and run `text`; any failure but an IrTimeError names `what`."""
    try:
        module = parse_module(text)
    except IrTimeError:
        return
    except Exception as exc:
        raise AssertionError(f"parsing {what} raised {exc!r}") from exc
    try:
        run(module, limits=LIMITS)
    except IrTimeError:
        pass
    except Exception as exc:
        raise AssertionError(f"running {what} raised {exc!r}") from exc


def _line_mutants(lines):
    for i in range(len(lines)):
        yield f"line {i + 1} deleted", lines[:i] + lines[i + 1:]
        yield f"line {i + 1} duplicated", lines[:i + 1] + lines[i:]
        if i + 1 < len(lines):
            yield f"lines {i + 1} and {i + 2} swapped", lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:]


@pytest.mark.parametrize("path", SAMPLE_PATHS, ids=lambda p: p.stem)
def test_line_mutants_fail_only_with_irtime_errors(path):
    for what, lines in _line_mutants(path.read_text().split("\n")):
        _check("\n".join(lines), f"{path.name} with {what}")


@st.composite
def _token_mutant(draw):
    text = draw(st.sampled_from(TEXTS))
    spans = [m.span() for m in _TOKEN_RE.finditer(text)]
    start, end = draw(st.sampled_from(spans))
    new = draw(st.sampled_from(EXTRA_TOKENS + [text[a:b] for a, b in spans]))
    edit = draw(st.sampled_from(["replace", "delete", "insert"]))
    if edit == "delete":
        new = ""
    if edit == "insert":
        end = start
        new += " "
    return text[:start] + new + text[end:]


@settings(max_examples=400, deadline=None)
@given(_token_mutant())
def test_token_mutants_fail_only_with_irtime_errors(text):
    _check(text, f"the mutant\n{text}")
