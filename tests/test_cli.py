import hashlib
import subprocess
import sys

import numpy as np
import pytest

from irtime.cli import main
from irtime import (
    FEATURE_COUNT, Dataset, DatasetRow, FeatureVector, TrainedModel, read_features,
    save_model, write_features,
)

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
