"""Mutants of the sample programs fail only with an IrTimeError.

A mutant is a sample with one line deleted, duplicated or swapped with the
next one, with one token replaced, deleted or inserted, or with a few
characters inserted, deleted or duplicated.  It either fails parse_module
with an IrTimeError, or it runs until it returns or raises an IrTimeError.
Nothing else may escape either stage.
"""

import re

import pytest
from hypothesis import given, seed, settings, strategies as st

from irtime import RunLimits, irparser, parse_module, run
from irtime.errors import IrTimeError, ParseError

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


# Characters that start, end or change a token; the lone surrogate has no
# UTF-8 bytes.
LEXICAL_CHARS = list('"\\@%!#.-;0123456789') + ["\n", "\t", "\u20ac", "\ud800"]


def _check(text, what):
    """Parse and run `text`; any failure but an IrTimeError names `what`.
    Returns the error that parsing raised, if any."""
    try:
        module = parse_module(text)
    except IrTimeError as exc:
        return exc
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


@st.composite
def _character_mutant(draw):
    text = draw(st.sampled_from(TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "duplicate"]))
        if edit == "insert":
            text = text[:i] + draw(st.sampled_from(LEXICAL_CHARS)) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i + 1] + text[i:]
    return text


@settings(max_examples=400, deadline=None)
@given(_character_mutant())
def test_character_mutants_fail_only_with_irtime_errors(text):
    exc = _check(text, f"the mutant\n{text!r}")
    if isinstance(exc, ParseError):
        assert exc.line is not None and 1 <= exc.line <= text.count("\n") + 1, str(exc)
        assert exc.column is None or exc.column >= 0, str(exc)


# what a token's text starts with before its value; a quoted string or name
# is checked up to its opening quote only, as its value is unquoted
_SIGILS = {"lid": "%", "gid": "@", "md": "!", "attr": "#", "cstr": "c"}


def _check_positions(text):
    """Each token of `text` is placed at its own text: its line:col starts
    its spelling, and only blanks stand between it and the token before it
    on its line.  A lexical fault is placed at the text it names."""
    rows = text.split("\n")
    try:
        statements = irparser._statements(text)
    except irparser._TokenFault as fault:
        exc = fault.placed(text)
        at = rows[exc.line - 1][exc.column - 1:]
        if re.match(r'[c%@]?"', at):        # a string, quoted name or c-string
            assert fault.message in ("bad string escape", "unterminated string",
                                     "unexpected character '\\ud800'"), (fault.message, at)
        else:
            assert fault.message in (f"dangling {at[0]!r}", f"unexpected character {at[0]!r}"), (
                fault.message, at)
        return
    ends = {}       # line -> where its last token ended, or None after a quoted one
    for toks in statements:
        for kind, value, line, nth in toks:
            col = irparser._column(text, line, nth)
            row = rows[line - 1]
            spelling = _SIGILS.get(kind, "")
            quoted = kind in ("str", "cstr") or row[col:col + 1] == '"' and kind in ("lid", "gid")
            spelling += '"' if quoted else value
            assert row.startswith(spelling, col - 1), (line, col, kind, value)
            end = ends.get(line, 0)
            if end is not None:
                assert row[end:col - 1].strip(" \t\r") == "", (line, col, kind, value)
            ends[line] = None if quoted else col - 1 + len(spelling)


@pytest.mark.parametrize("path", SAMPLE_PATHS, ids=lambda p: p.stem)
def test_sample_tokens_are_placed_at_their_own_text(path):
    _check_positions(path.read_text())


@seed(16)
@settings(max_examples=300, deadline=None)
@given(st.one_of(_token_mutant(), _character_mutant()))
def test_mutant_tokens_are_placed_at_their_own_text(text):
    _check_positions(text)
