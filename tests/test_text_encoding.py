"""Text files are read as UTF-8, and quoted IR names keep their UTF-8 bytes.

A byte that is not UTF-8 fails as the reader's IrTimeError, naming where it
is, and never aborts a command that has healthy inputs beside it.
"""

import json

import pytest

from irtime import (
    PipelineConfig, config_from_file, load_model, parse_file, parse_module, read_features,
    read_labels, read_trace, run, write_trace,
)
from irtime.cli import main
from irtime.errors import FormatError, InvalidConfigError, ParseError

from conftest import EXAMPLE_B

# 0xE9 is "é" in Latin-1, and no UTF-8 sequence starts with it
LATIN1_COMMENT = b"; caf\xe9\n"


def test_ir_file_that_is_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.ll"
    path.write_bytes(EXAMPLE_B.encode() + b"  ; r\xc3\xa9sum\xe9 \n")
    line = EXAMPLE_B.count("\n") + 1
    # the column counts characters: "  ; résum" is 9 of them
    with pytest.raises(ParseError, match=rf"^{line}:10: byte 0xE9 is not valid UTF-8$"):
        parse_file(path)


@pytest.mark.parametrize("reader", [read_trace, read_features, read_labels])
def test_data_file_that_is_not_utf8_is_a_format_error(tmp_path, reader):
    path = tmp_path / "data.txt"
    path.write_bytes(b"# header\n" + LATIN1_COMMENT)
    with pytest.raises(FormatError, match=r"data\.txt:2: byte 0xE9 is not valid UTF-8$"):
        reader(path)


def test_model_file_that_is_not_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(b'{"kind": "linear\xe9"}')
    with pytest.raises(FormatError, match=r"m\.json:1: byte 0xE9 is not valid UTF-8$"):
        load_model(path)


def test_config_file_that_is_not_utf8_is_an_invalid_config(tmp_path):
    path = tmp_path / "c.json"
    path.write_bytes(json.dumps(PipelineConfig().to_dict()).encode()[:-1] + b', "x": "\xe9"}')
    with pytest.raises(InvalidConfigError, match=r"c\.json:1:\d+: byte 0xE9 is not valid UTF-8$"):
        config_from_file(path)


def test_simulate_keeps_going_past_a_file_that_is_not_utf8(tmp_path, capsys, samples_dir):
    src = tmp_path / "src"
    src.mkdir()
    samples = sorted(samples_dir.glob("*.ll"))
    for p in samples:
        (src / p.name).write_bytes(p.read_bytes())
    (src / "latin1.ll").write_bytes(LATIN1_COMMENT + EXAMPLE_B.encode())
    out = tmp_path / "traces"
    assert main(["simulate", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("FAIL")] == [
        "FAIL latin1: 1:6: byte 0xE9 is not valid UTF-8"]
    assert sorted(p.stem for p in out.glob("*.trace")) == [p.stem for p in samples]


def test_features_reports_a_trace_that_is_not_utf8(tmp_path, capsys, example_b):
    path = tmp_path / "b.trace"
    write_trace(run(example_b), path)
    path.write_bytes(path.read_bytes() + LATIN1_COMMENT)
    assert main(["features", str(path), "--out", str(tmp_path / "f.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "b.trace:" in err and "byte 0xE9" in err
    assert "Traceback" not in err


# --- quoted names ---------------------------------------------------------------


def test_quoted_labels_keep_their_utf8_bytes(tmp_path):
    # "€" is E2 82 AC and "¬" is C2 AC: their low bytes alone would collide
    src = ('define i32 @main() {\nentry:\n  br label %"a€"\n'
           '"a€":\n  br label %"a¬"\n"a¬":\n  ret i32 0\n}\n')
    labels = [b.label for b in parse_module(src).functions[0].blocks]
    assert labels == ["entry", "a\xe2\x82\xac", "a\xc2\xac"]
    trace = run(parse_module(src))
    path = tmp_path / "q.trace"
    write_trace(trace, path)
    assert read_trace(path) == trace
    assert len(trace.block_counts) == 3


def test_string_constant_holds_utf8_bytes():
    def init(text):
        return parse_module(f"@s = global [3 x i8] {text}\n").global_var("s").init
    assert init('c"€"') == init('c"\\E2\\82\\AC"') == b"\xe2\x82\xac"


def test_a_lone_surrogate_in_a_quoted_name_is_a_parse_error():
    with pytest.raises(ParseError, match=r"^1:1: unexpected character '\\ud800'$"):
        parse_module('@"a\ud800" = global i32 0\n')
