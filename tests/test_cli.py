import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from irtime.cli import main
from irtime import (
    FEATURE_COUNT, Dataset, DatasetRow, FeatureVector, RunLimits, TrainedModel, parse_module,
    read_features, run, save_model, write_features,
)
from irtime.errors import HeapExhausted

from conftest import EXAMPLE_B


def _labels_for(trace_dir, value=1000.0):
    lines = ["# unit: ns"]
    for p in sorted(trace_dir.glob("*.trace")):
        lines.append(f"{p.stem} {value + len(p.stem)}")
    path = trace_dir / "times.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_full_pipeline(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    traces = tmp_path / "traces"
    feats = tmp_path / "m.features"

    assert main(["gen-corpus", "--opcode", "add,fmul", "--counts", "20,40",
                 "--out", str(corpus), "--seed", "0"]) == 0
    assert len(list(corpus.glob("*.ll"))) == 4

    assert main(["simulate", str(corpus), "--out", str(traces)]) == 0
    assert len(list(traces.glob("*.trace"))) == 4

    labels = _labels_for(traces)
    assert main(["features", str(traces), "--labels", str(labels),
                 "--out", str(feats)]) == 0
    ds = read_features(feats)
    assert len(ds) == 4
    assert all(r.label is not None for r in ds.rows)

    for kind in ("linear", "huber", "forest", "mlp"):
        model_path = tmp_path / f"{kind}.model.json"
        assert main(["train", "--features", str(feats), "--model", kind,
                     "--out", str(model_path), "--seed", "0"]) == 0
        assert model_path.exists()

    preds = tmp_path / "preds.txt"
    assert main(["predict", "--model", str(tmp_path / "linear.model.json"),
                 "--features", str(feats), "--out", str(preds)]) == 0
    body = [l for l in preds.read_text().splitlines()
            if l and not l.startswith("#")]
    assert len(body) == 4
    for line in body:
        sample_id, value = line.split()
        assert float(value) >= 0.0

    capsys.readouterr()
    report = tmp_path / "report.csv"
    assert main(["eval", "--model", str(tmp_path / "linear.model.json"),
                 "--features", str(feats), "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "overall" in out
    assert "mse:" in out
    lines = report.read_text().splitlines()
    assert lines[1] == "sample_id,actual,predicted,ape,sape"
    assert sum(1 for l in lines if not l.startswith("#")) == 5  # header + 4
    assert any(l.startswith("# overall") for l in lines)


def test_simulate_partial_failure(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "good.ll").write_text(EXAMPLE_B)
    (src / "bad.ll").write_text("define i32 @main() {\nentry:\n  %r = frobnicate i32 1\n  ret i32 %r\n}\n")
    out = tmp_path / "traces"
    assert main(["simulate", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "FAIL bad" in err
    assert "1 of 2 samples failed" in err
    # the healthy sample still produced its trace
    assert (out / "good.trace").exists()
    assert not (out / "bad.trace").exists()


DEEP_TYPE = "[1 x " * 3000 + "i32" + "]" * 3000

# sample -> (the body of its main, the line of its fault)
FAULTY_MAINS = {
    "b_icmp": ("  %c = icmp eq double 1.0, 2.0", 3),
    "c_malloc": ("  %p = call ptr @malloc()", 3),
    "d_store": ("  %p = alloca [2 x i32]\n  %v = load [2 x i32], ptr %p\n"
                "  store [2 x i32] %v, ptr %p", 5),
}


@pytest.mark.parametrize("workers", [[], ["--workers", "2"]])
def test_simulate_isolates_a_deeply_nested_type(tmp_path, capsys, samples_dir, workers):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a_deep.ll").write_text(f"@deep = global {DEEP_TYPE} zeroinitializer\n"
                                   + (samples_dir / "sum_loop.ll").read_text())
    for name, (body, _) in FAULTY_MAINS.items():
        (src / f"{name}.ll").write_text(f"define i32 @main() {{\nentry:\n{body}\n"
                                        "  ret i32 0\n}\n")
    (src / "sum_loop.ll").write_text((samples_dir / "sum_loop.ll").read_text())
    out = tmp_path / "traces"
    assert main(["simulate", str(src), "--out", str(out), *workers]) == 1
    err = capsys.readouterr().err
    assert "FAIL a_deep: 1:" in err
    for name, (_, line) in FAULTY_MAINS.items():
        assert f"FAIL {name}: {line}:" in err
    assert "4 of 5 samples failed" in err
    assert (out / "sum_loop.trace").exists()


def test_simulate_step_limit_flag(tmp_path, capsys):
    (tmp_path / "b.ll").write_text(EXAMPLE_B)
    out = tmp_path / "traces"
    assert main(["simulate", str(tmp_path / "b.ll"), "--out", str(out),
                 "--max-steps", "5"]) == 1
    assert "FAIL b" in capsys.readouterr().err
    assert main(["simulate", str(tmp_path / "b.ll"), "--out", str(out),
                 "--max-steps", "100"]) == 0


def test_simulate_requires_main(tmp_path, capsys):
    (tmp_path / "lib.ll").write_text(
        "define i32 @helper() {\nentry:\n  ret i32 1\n}\n")
    assert main(["simulate", str(tmp_path / "lib.ll"),
                 "--out", str(tmp_path / "t")]) == 1
    assert "main" in capsys.readouterr().err


def test_simulate_missing_input(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "nope.ll"),
                 "--out", str(tmp_path / "t")]) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_workers_agree(tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["gen-corpus", "--opcode", "xor", "--counts", "10:30:10",
                 "--out", str(corpus), "--seed", "2"]) == 0
    a = tmp_path / "serial"
    b = tmp_path / "parallel"
    assert main(["simulate", str(corpus), "--out", str(a)]) == 0
    assert main(["simulate", str(corpus), "--out", str(b),
                 "--workers", "3"]) == 0
    for pa in sorted(a.glob("*.trace")):
        pb = b / pa.name
        assert pa.read_bytes() == pb.read_bytes()


def test_simulate_deterministic(tmp_path):
    (tmp_path / "b.ll").write_text(EXAMPLE_B)
    one = tmp_path / "one"
    two = tmp_path / "two"
    assert main(["simulate", str(tmp_path / "b.ll"), "--out", str(one)]) == 0
    assert main(["simulate", str(tmp_path / "b.ll"), "--out", str(two)]) == 0
    assert (one / "b.trace").read_bytes() == (two / "b.trace").read_bytes()


def test_features_missing_label(tmp_path, capsys):
    (tmp_path / "b.ll").write_text(EXAMPLE_B)
    traces = tmp_path / "traces"
    assert main(["simulate", str(tmp_path / "b.ll"), "--out", str(traces)]) == 0
    labels = tmp_path / "times.txt"
    labels.write_text("someother 12.0\n")
    assert main(["features", str(traces), "--labels", str(labels),
                 "--out", str(tmp_path / "f.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_features_empty_dir_warns(tmp_path, capsys):
    empty = tmp_path / "traces"
    empty.mkdir()
    out = tmp_path / "f.csv"
    assert main(["features", str(empty), "--out", str(out)]) == 0
    assert "warning" in capsys.readouterr().err
    ds = read_features(out)
    assert len(ds) == 0


def test_unlabeled_features_cannot_train(tmp_path, capsys):
    (tmp_path / "b.ll").write_text(EXAMPLE_B)
    traces = tmp_path / "traces"
    feats = tmp_path / "f.csv"
    assert main(["simulate", str(tmp_path / "b.ll"), "--out", str(traces)]) == 0
    assert main(["features", str(traces), "--out", str(feats)]) == 0
    assert main(["train", "--features", str(feats), "--model", "linear",
                 "--out", str(tmp_path / "m.json")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eval_fails_on_a_non_finite_prediction(tmp_path, capsys):
    # weights near the largest float sum past it, so the prediction for
    # 'big_2' is inf: eval fails instead of reporting an APE of inf
    model = TrainedModel("linear", FEATURE_COUNT, {}, 0, "",
                         {"weights": np.full(FEATURE_COUNT, 1e308), "intercept": 0.0})
    save_model(model, tmp_path / "m.json")
    rows = (DatasetRow("small_1", FeatureVector((0.0,) * FEATURE_COUNT), 100.0),
            DatasetRow("big_2", FeatureVector((1.0,) * FEATURE_COUNT), 100.0))
    write_features(Dataset(rows), tmp_path / "f.csv")
    report = tmp_path / "report.csv"
    assert main(["eval", "--model", str(tmp_path / "m.json"), "--features",
                 str(tmp_path / "f.csv"), "--out", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: sample 'big_2': prediction inf is not finite\n"
    assert "overall" not in captured.out and not report.exists()


@pytest.mark.parametrize("model", ["forest", "mlp"])
def test_train_rejects_a_negative_seed(tmp_path, capsys, model):
    # checked as "master_seed": -1 in a config file is, before any fit
    rows = tuple(DatasetRow(f"s{i}", FeatureVector((float(i),) * FEATURE_COUNT), 100.0 + i)
                 for i in range(4))
    write_features(Dataset(rows), tmp_path / "f.csv")
    out = tmp_path / "m.json"
    assert main(["train", "--features", str(tmp_path / "f.csv"), "--model", model,
                 "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: master_seed must be >= 0\n"
    assert not out.exists()


def test_gen_corpus_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "c"
    assert main(["gen-corpus", "--opcode", "add", "--counts", "10", "--out", str(out),
                 "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: master_seed must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, message", [
    (["--workers", "0"], "workers must be >= 1"),
    (["--workers", "-3"], "workers must be >= 1"),
    (["--max-steps", "0"], "max_steps must be positive"),
], ids=["workers=0", "workers=-3", "max-steps=0"])
def test_simulate_rejects_bad_overrides(tmp_path, capsys, flag, message):
    (tmp_path / "b.ll").write_text(EXAMPLE_B)
    out = tmp_path / "traces"
    assert main(["simulate", str(tmp_path / "b.ll"), "--out", str(out), *flag]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _features_file(d, labeled=True, n=3):
    rows = tuple(DatasetRow(f"s{i}", FeatureVector((float(i),) * FEATURE_COUNT),
                            100.0 + i if labeled else None) for i in range(n))
    write_features(Dataset(rows), d / "f.csv")


def _edit_model(edit):
    """A step that changes the JSON of m.json by `edit`."""
    def step(d):
        doc = json.loads((d / "m.json").read_text())
        edit(doc)
        (d / "m.json").write_text(json.dumps(doc))
    return step


def _forest(**tree):
    """A step that makes m.json a forest of one tree, a leaf but for `tree`."""
    leaf = {"feature": [-1], "left": [-1], "right": [-1], "threshold": [0.0], "value": [1.0]}
    return _edit_model(lambda doc: doc.update(kind="forest",
                                              parameters={"trees": [{**leaf, **tree}]}))


def _edit_csv(lineno, old, new):
    """A step that changes the first `old` on line `lineno` of f.csv to
    `new`: line 2 is the header, line 3 the first sample's row."""
    def step(d):
        lines = (d / "f.csv").read_text().split("\n")
        lines[lineno - 1] = lines[lineno - 1].replace(old, new, 1)
        (d / "f.csv").write_text("\n".join(lines))
    return step


def _config(text):
    """A step that writes `text` to c.json."""
    return lambda d: (d / "c.json").write_text(text)


_SIMULATE = ["simulate", "{d}", "--config", "{d}/c.json", "--out", "{d}/t"]
_PREDICT = ["predict", "--model", "{d}/m.json", "--features", "{d}/f.csv", "--out", "{d}/p.txt"]
_TRAIN = ["train", "--features", "{d}/f.csv", "--model", "linear", "--out", "{d}/n.json"]

# name -> (the arguments, the error printed, the step that breaks the
# directory's sound f.csv and m.json); {d} stands for the directory.  Each
# error names the file at fault, and its line where the format has lines.
INPUT_FAULTS = {
    "simulate_of_a_directory_without_ll_files": (
        ["simulate", "{d}", "--out", "{d}/t"], "no .ll inputs found in {d}", lambda d: None),
    "gen_corpus_without_an_opcode": (
        ["gen-corpus", "--opcode", ",", "--counts", "3", "--out", "{d}/c"],
        "need at least one opcode and one count", lambda d: None),
    "model_file_holding_an_array": (
        _PREDICT, "{d}/m.json: model file must hold a JSON object",
        lambda d: (d / "m.json").write_text("[]")),
    "model_of_no_features": (
        _PREDICT, "{d}/m.json: feature_count must be a positive integer, got 0",
        _edit_model(lambda doc: doc.update(feature_count=0))),
    "model_weight_of_nan": (
        _PREDICT, "{d}/m.json: malformed model file: parameter 'weights' is not finite",
        _edit_model(lambda doc: doc["parameters"]["weights"].__setitem__(0, float("nan")))),
    "forest_tree_arrays_of_two_lengths": (
        _PREDICT, "{d}/m.json: malformed model file: a tree needs five lists of one non-zero "
        "length", _forest(value=[1.0, 2.0])),
    "forest_threshold_of_infinity": (
        _PREDICT, "{d}/m.json: malformed model file: a tree threshold or value is not finite",
        _forest(threshold=[float("inf")])),
    "features_without_a_sample_id_column": (
        _PREDICT, "{d}/f.csv:2: header must contain sample_id", _edit_csv(2, "sample_id", "id")),
    "bad_feature_value": (
        _PREDICT, "{d}/f.csv:3: bad feature value (could not convert string to float: 'x')",
        _edit_csv(3, ",0", ",x")),
    "bad_label": (_PREDICT, "{d}/f.csv:3: bad label 'lots'", _edit_csv(3, "100", "lots")),
    "eval_of_features_without_labels": (
        ["eval", "--model", "{d}/m.json", "--features", "{d}/f.csv"],
        "{d}/f.csv: dataset has no labeled rows", lambda d: _features_file(d, labeled=False)),
    "train_of_features_without_labels": (
        _TRAIN, "{d}/f.csv: dataset has no labeled rows",
        lambda d: _features_file(d, labeled=False)),
    "linear_training_on_one_row": (
        _TRAIN, "{d}/f.csv: linear training needs at least 2 samples",
        lambda d: _features_file(d, n=1)),
    # every branch site starts weakly not-taken, so no config sets its state
    "config_naming_the_predictor_start_state": (
        _SIMULATE, "{d}/c.json: unknown config keys: ['predictor_initial_state']",
        _config('{"predictor_initial_state": "ST"}')),
    "config_of_a_bad_value": (
        _SIMULATE, "{d}/c.json: max_steps must be positive",
        _config('{"limits": {"max_steps": 0}}')),
    "config_that_is_not_json": (
        _TRAIN + ["--config", "{d}/c.json"],
        "{d}/c.json:2:2: not valid JSON: Expecting ',' delimiter",
        _config('{"master_seed": 1\n "workers": 2}')),
}


@pytest.mark.parametrize("name", INPUT_FAULTS)
def test_input_fault_is_an_error_naming_its_file(tmp_path, capsys, name):
    argv, message, breaks = INPUT_FAULTS[name]
    _features_file(tmp_path)
    save_model(TrainedModel("linear", FEATURE_COUNT, {}, 0, "",
                            {"weights": np.zeros(FEATURE_COUNT), "intercept": 0.0}),
               tmp_path / "m.json")
    breaks(tmp_path)
    assert main([arg.format(d=tmp_path) for arg in argv]) == 1
    assert capsys.readouterr().err == f"error: {message.format(d=tmp_path)}\n"


def test_malloc_beyond_the_heap_limit_raises_heap_exhausted():
    module = parse_module("declare ptr @malloc(i32)\ndefine i32 @main() {\nentry:\n"
                          "  %p = call ptr @malloc(i32 4096)\n  ret i32 0\n}\n")
    with pytest.raises(HeapExhausted, match="^heap limit of 1024 bytes exhausted$"):
        run(module, limits=RunLimits(max_heap_bytes=1024))


def test_config_file_drives_limits(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"limits": {"max_steps": 5}}')
    (tmp_path / "b.ll").write_text(EXAMPLE_B)
    assert main(["simulate", str(tmp_path / "b.ll"), "--config", str(cfg),
                 "--out", str(tmp_path / "t")]) == 1
    assert "FAIL" in capsys.readouterr().err

    cfg.write_text('{"limit": {}}')  # typo must not be ignored
    assert main(["simulate", str(tmp_path / "b.ll"), "--config", str(cfg),
                 "--out", str(tmp_path / "t")]) == 1
    assert "error:" in capsys.readouterr().err

    # the unit of the labels comes from the labels file, not the config
    cfg.write_text('{"label_unit": "us"}')
    assert main(["simulate", str(tmp_path / "b.ll"), "--config", str(cfg),
                 "--out", str(tmp_path / "t")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: unknown config keys: ['label_unit']\n"


def test_simulate_rejects_oversized_globals_and_keeps_going(tmp_path, capsys, samples_dir):
    src = tmp_path / "src"
    src.mkdir()
    (src / "big.ll").write_text("@big = global [33554432 x i8] zeroinitializer\n" + EXAMPLE_B)
    (src / "sum_loop.ll").write_text((samples_dir / "sum_loop.ll").read_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"limits": {"max_stack_bytes": 1024, "max_heap_bytes": 1024}}')
    out = tmp_path / "traces"
    assert main(["simulate", str(src), "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "FAIL big: global storage exhausted at '@big'" in err
    assert not (out / "big.trace").exists()
    assert (out / "sum_loop.trace").exists()


def test_gen_corpus_range_and_bad_opcode(tmp_path, capsys):
    out = tmp_path / "c"
    assert main(["gen-corpus", "--opcode", "sub", "--counts", "10:30:10",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.ll")) == [
        "sub_10.ll", "sub_20.ll", "sub_30.ll"]

    assert main(["gen-corpus", "--opcode", "br", "--counts", "5",
                 "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err

    # an empty part between commas is skipped
    assert main(["gen-corpus", "--opcode", "add", "--counts", "10,,20",
                 "--out", str(tmp_path / "e")]) == 0
    assert sorted(p.name for p in (tmp_path / "e").glob("*.ll")) == ["add_10.ll", "add_20.ll"]


@pytest.mark.parametrize("counts", ["x", "1::", "1:5:0", "1:10:2:7", ":5", "10,y"])
def test_gen_corpus_bad_counts_are_usage_errors(tmp_path, capsys, counts):
    out = tmp_path / "c"
    with pytest.raises(SystemExit) as exc:
        main(["gen-corpus", "--opcode", "add", "--counts", counts, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "argument --counts: bad count" in err
    assert not out.exists()


def test_gen_corpus_seed_changes_constants(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["gen-corpus", "--opcode", "sdiv", "--counts", "16",
                 "--out", str(a), "--seed", "1"]) == 0
    assert main(["gen-corpus", "--opcode", "sdiv", "--counts", "16",
                 "--out", str(b), "--seed", "2"]) == 0
    assert (a / "sdiv_16.ll").read_text() != (b / "sdiv_16.ll").read_text()


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["train", "--features", "x.csv", "--model", "svm",
              "--out", "m.json"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["predict", "eval"])
@pytest.mark.parametrize("flag", [["--config", "/nonexistent.json"], ["--seed", "1"]])
def test_predict_and_eval_take_no_config_or_seed(tmp_path, capsys, command, flag):
    # neither reads a config or a seed, so either flag is a usage error, and
    # nothing is read or written
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exc:
        main([command, "--model", "m.json", "--features", "f.csv", "--out", str(out), *flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"unrecognized arguments: {' '.join(flag)}" in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("simulate", ["--seed", "1"]),
    ("features", ["--seed", "1"]),
    ("features", ["--config", "f.json"]),
])
def test_simulate_and_features_take_no_option_they_do_not_read(tmp_path, capsys, command, flag):
    # simulate reads the config but no seed, and features reads neither: the
    # labels file gives the unit.  Each such flag is a usage error, and
    # nothing is written
    (tmp_path / "b.ll").write_text(EXAMPLE_B)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path), "--out", str(out), *flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"unrecognized arguments: {' '.join(flag)}" in err
    assert not out.exists()


def test_module_is_runnable():
    proc = subprocess.run(
        [sys.executable, "-m", "irtime.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
    assert "gen-corpus" in proc.stdout


# sha256 of the text artifacts written over the traces of samples/ plus a
# seeded corpus, recorded before the trace layer's readers and writers were
# folded into one routine each
_TEXT_ARTIFACT_SHA256 = {
    "features.csv": "7e573146627ba7605753ea6c63bce4d2f24aa95beaac27d9186c8e0a0d343514",
    "predictions.txt": "68ae4c9f206a3273b51a6f1710890f83ed0feba622b2e270dada808158e3aaf4",
    "report.csv": "e3a4f5b60b8e24d68af77fa72caf5ed3d2c3c97333700a0c2d91e3e0907f0980",
}


def test_text_artifact_bytes_pinned(tmp_path, samples_dir):
    corpus, traces = tmp_path / "corpus", tmp_path / "traces"
    assert main(["gen-corpus", "--opcode", "add,fmul,sdiv,sitofp,icmp",
                 "--counts", "3:63:12", "--out", str(corpus), "--seed", "5"]) == 0
    assert main(["simulate", str(samples_dir), str(corpus),
                 "--out", str(traces)]) == 0
    labels = _labels_for(traces)
    out = {name: tmp_path / name for name in _TEXT_ARTIFACT_SHA256}
    model = tmp_path / "linear.json"
    assert main(["features", str(traces), "--labels", str(labels),
                 "--out", str(out["features.csv"])]) == 0
    assert main(["train", "--features", str(out["features.csv"]),
                 "--model", "linear", "--out", str(model), "--seed", "1"]) == 0
    assert main(["predict", "--model", str(model), "--features",
                 str(out["features.csv"]), "--out", str(out["predictions.txt"])]) == 0
    assert main(["eval", "--model", str(model), "--features",
                 str(out["features.csv"]), "--out", str(out["report.csv"])]) == 0
    for name, path in out.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _TEXT_ARTIFACT_SHA256[name], name
