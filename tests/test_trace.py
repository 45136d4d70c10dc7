import random

import pytest

from irtime import (
    FEATURE_NAMES, FEATURE_COUNT, UNTRACKED_OPCODES,
    FeatureVector, Dataset, DatasetRow,
    extract_features, run, parse_file, parse_module,
    write_trace, read_trace, write_features, read_features, read_labels,
)
from irtime.errors import (
    FormatError, DimensionMismatchError, MissingLabelError, EmptyDatasetError,
)


EXPECTED_NAMES = (
    "add", "fadd", "sub", "fsub", "and", "or", "xor", "shl", "lshr", "ashr",
    "icmp", "fcmp", "zext", "sext", "fptosi", "uitofp", "sitofp", "fneg",
    "sdiv", "fdiv", "mul", "udiv", "urem", "fmul", "srem",
    "br_hit", "br_miss", "br_uncond",
    "store_miss", "store_hit", "load_miss", "load_hit",
    "switch", "getelementptr", "phi", "alloca",
    "memset", "memcpy", "calloc", "malloc",
    "inst_miss", "bb_jump",
)


def test_feature_order_is_frozen():
    # downstream files and trained models index by position, so the
    # order itself is part of the contract
    assert FEATURE_NAMES == EXPECTED_NAMES
    assert FEATURE_COUNT == 42
    assert UNTRACKED_OPCODES == ("ret", "call")


def test_extract_features_mapping(example_b):
    f = extract_features(run(example_b))
    assert f["add"] == 20
    assert f["phi"] == 20
    assert f["icmp"] == 10
    assert f["br_hit"] == 8
    assert f["br_miss"] == 2
    assert f["br_uncond"] == 1
    assert f["inst_miss"] == 8
    assert f["bb_jump"] == 2
    assert f["mul"] == 0
    assert f["memcpy"] == 0
    # positional and named access agree
    assert f[0] == f["add"]
    assert f[41] == f["bb_jump"]


def test_feature_conservation_on_samples(samples_dir):
    # every executed instruction lands in exactly one feature bucket,
    # except ret and call which are deliberately untracked; the four
    # byte-volume features and the two derived counters stay outside
    derived = {"memset", "memcpy", "calloc", "malloc", "inst_miss", "bb_jump"}
    for path in sorted(samples_dir.glob("*.ll")):
        t = run(parse_file(path))
        f = extract_features(t)
        bucketed = sum(v for name, v in zip(FEATURE_NAMES, f.values)
                       if name not in derived)
        untracked = sum(t.op_counts.get(op, 0) for op in UNTRACKED_OPCODES)
        assert bucketed + untracked == t.total_instructions(), path.name


def test_cache_and_branch_splits_cover_opcodes(samples_dir):
    for path in sorted(samples_dir.glob("*.ll")):
        t = run(parse_file(path))
        assert t.load_hit + t.load_miss == t.op_counts.get("load", 0)
        assert t.store_hit + t.store_miss == t.op_counts.get("store", 0)
        assert t.br_hit + t.br_miss + t.br_uncond == t.op_counts.get("br", 0)


def test_dirty_evictions_from_stores_and_loads():
    # bytes 0, 8192 and 16384 of @a share set 0 of the default 2-way cache
    src = """@a = global [4097 x i32] zeroinitializer

define i32 @main() {
entry:
  %p1 = getelementptr [4097 x i32], ptr @a, i32 0, i32 2048
  %p2 = getelementptr [4097 x i32], ptr @a, i32 0, i32 4096
  store i32 1, ptr @a
  store i32 2, ptr %p1
  store i32 3, ptr %p1
  store i32 4, ptr %p2
  %r = load i32, ptr @a
  ret i32 %r
}
"""
    t = run(parse_module(src))
    # the store to %p2 evicts @a's dirty line, the load evicts %p1's
    assert (t.store_miss, t.store_hit, t.load_miss, t.load_hit) == (3, 1, 1, 0)
    assert t.dirty_evictions == 2


def test_trace_file_round_trip(tmp_path, example_b):
    t = run(example_b)
    p = tmp_path / "b.trace"
    write_trace(t, p)
    assert read_trace(p) == t
    # reproducible bytes
    p2 = tmp_path / "b2.trace"
    write_trace(t, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_quoted_names_read_back(tmp_path):
    # a newline in a function name, and a label holding a backslash, a tab,
    # a carriage return, DEL and a byte above 0x7F
    module = parse_module('define i32 @"x\\0Ay"() {\n"e\\5C\\09\\0D\\7F\\E9":\n  ret i32 0\n}\n')
    t = run(module, entry="x\ny")
    assert t.block_counts == {"x\ny:e\\\t\r\x7f\xe9": 1}
    p = tmp_path / "q.trace"
    write_trace(t, p)
    assert "block.x\\0Ay:e\\5C\\09\\0D\\7F\xe9\t1\n" in p.read_text(encoding="utf-8")
    assert read_trace(p) == t


def test_trace_rejects_a_bare_backslash_in_a_block_name(tmp_path, example_b):
    p = tmp_path / "b.trace"
    write_trace(run(example_b), p)
    text = p.read_text()
    for name in ("main:a\\b", "main:a\\", "main:a\\G0"):
        p.write_text(text.replace("block.main:loop", f"block.{name}"))
        with pytest.raises(FormatError, match="backslash without two hex digits"):
            read_trace(p)


def test_trace_file_rejects_garbage(tmp_path, example_b):
    t = run(example_b)
    good = tmp_path / "good.trace"
    write_trace(t, good)
    text = good.read_text()

    bad = tmp_path / "bad.trace"

    bad.write_text(text + "mystery.counter\t5\n")
    with pytest.raises(FormatError):
        read_trace(bad)

    # drop a required scalar
    kept = [l for l in text.splitlines() if not l.startswith("branch.br_hit")]
    bad.write_text("\n".join(kept) + "\n")
    with pytest.raises(FormatError):
        read_trace(bad)

    bad.write_text(text.replace("branch.br_hit\t8", "branch.br_hit\t-8"))
    with pytest.raises(FormatError):
        read_trace(bad)

    bad.write_text(text.replace("branch.br_hit\t8", "branch.br_hit\teight"))
    with pytest.raises(FormatError):
        read_trace(bad)

    bad.write_text(text + "op.add 4\n")  # space, not tab
    with pytest.raises(FormatError):
        read_trace(bad)

    # a key listed twice is an error naming the second line, not a new value
    second = len(text.splitlines()) + 1
    for key in ("cache.load_hit", "op.add", "block.main:loop"):
        bad.write_text(text + f"{key}\t999\n")
        with pytest.raises(FormatError, match=f"bad.trace:{second}: "):
            read_trace(bad)


def _vector(rng):
    return FeatureVector(tuple(rng.randrange(0, 500) for _ in range(42)))


def test_features_csv_round_trip(tmp_path):
    rng = random.Random(7)
    rows = tuple(
        DatasetRow(f"s{i}", _vector(rng), label=float(rng.randrange(1, 9000)))
        for i in range(6)
    )
    ds = Dataset(rows, unit="cycles")
    p = tmp_path / "f.csv"
    write_features(ds, p)
    back = read_features(p)
    assert back.unit == "cycles"
    assert len(back) == 6
    for a, b in zip(ds.rows, back.rows):
        assert a.sample_id == b.sample_id
        assert tuple(a.features.values) == tuple(map(int, b.features.values))
        assert a.label == b.label


def test_fractional_label_round_trips_exactly(tmp_path):
    # a whole label is written as an integer, any other by repr
    labels = (1234.5, 0.1 + 0.2, 2.0 ** -30, 100.0)
    ds = Dataset(tuple(DatasetRow(f"s{i}", FeatureVector((0,) * 42), label=v)
                       for i, v in enumerate(labels)))
    p = tmp_path / "f.csv"
    write_features(ds, p)
    cells = [line.rsplit(",", 1)[1] for line in p.read_text().splitlines()[2:]]
    assert cells == ["1234.5", "0.30000000000000004", "9.313225746154785e-10", "100"]
    assert tuple(r.label for r in read_features(p).rows) == labels


def test_features_header_may_be_reordered(tmp_path):
    rng = random.Random(8)
    row = DatasetRow("only", _vector(rng), label=12.0)
    p = tmp_path / "f.csv"
    write_features(Dataset((row,)), p)

    lines = p.read_text().splitlines()
    header = lines[1].split(",")
    body = lines[2].split(",")
    order = list(range(len(header)))
    rng.shuffle(order)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(
        ",".join(header[i] for i in order) + "\n"
        + ",".join(body[i] for i in order) + "\n"
    )
    back = read_features(shuffled)
    assert back.rows[0].sample_id == "only"
    assert tuple(back.rows[0].features.values) == tuple(
        float(v) for v in row.features.values)
    assert back.rows[0].label == 12.0


def test_features_header_must_be_complete(tmp_path):
    p = tmp_path / "short.csv"
    names = list(FEATURE_NAMES[:-1])  # 41 of 42
    p.write_text("sample_id," + ",".join(names) + "\n")
    with pytest.raises(DimensionMismatchError):
        read_features(p)

    p.write_text("sample_id," + ",".join(FEATURE_NAMES) + ",bogus\n")
    with pytest.raises(DimensionMismatchError):
        read_features(p)


def test_features_header_rejects_a_repeated_column(tmp_path):
    p = tmp_path / "repeated.csv"
    names = ",".join(FEATURE_NAMES)
    p.write_text(f"sample_id,{names},{FEATURE_NAMES[0]}\n")
    with pytest.raises(DimensionMismatchError, match="duplicated columns"):
        read_features(p)
    # a second label column would replace every label, and a second
    # sample_id column every id
    ones = ",".join("1" for _ in FEATURE_NAMES)
    for header, row in ((f"sample_id,{names},label,label", f"a,{ones},5,999"),
                        (f"sample_id,{names},sample_id", f"a,{ones},b")):
        p.write_text(f"# unit: ns\n{header}\n{row}\n")
        twice = header.split(",")[-1]
        with pytest.raises(FormatError, match=f"repeated.csv:2: header lists {twice} twice"):
            read_features(p)


def test_features_row_width_checked(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text(
        "sample_id," + ",".join(FEATURE_NAMES) + "\n"
        + "s0," + ",".join("1" for _ in range(41)) + "\n"
    )
    with pytest.raises(FormatError):
        read_features(p)


def test_features_reject_a_repeated_sample_id(tmp_path):
    p = tmp_path / "twice.csv"
    ones = ",".join("1" for _ in FEATURE_NAMES)
    p.write_text(f"# unit: ns\nsample_id,{','.join(FEATURE_NAMES)},label\n"
                 f"a,{ones},5\nb,{ones},6\na,{ones},7\n")
    with pytest.raises(FormatError, match="twice.csv:5: sample 'a' listed twice"):
        read_features(p)


def test_features_empty_file_needs_header(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(FormatError):
        read_features(p)
    # header-only file is fine and yields an empty dataset
    p.write_text("sample_id," + ",".join(FEATURE_NAMES) + "\n")
    assert len(read_features(p)) == 0


def test_write_features_requires_uniform_labels(tmp_path):
    rng = random.Random(9)
    rows = (
        DatasetRow("a", _vector(rng), label=3.0),
        DatasetRow("b", _vector(rng), label=None),
    )
    with pytest.raises(MissingLabelError):
        write_features(Dataset(rows), tmp_path / "x.csv")


def test_unlabeled_features_have_no_label_column(tmp_path):
    rng = random.Random(10)
    ds = Dataset((DatasetRow("a", _vector(rng)),))
    p = tmp_path / "u.csv"
    write_features(ds, p)
    header = p.read_text().splitlines()[1]
    assert "label" not in header.split(",")
    assert read_features(p).rows[0].label is None


def test_labels_file(tmp_path):
    p = tmp_path / "times.txt"
    p.write_text("# unit: us\nalpha 12.5\nbeta 7\n\n# trailing comment\n")
    labels, unit = read_labels(p)
    assert labels == {"alpha": 12.5, "beta": 7.0}
    assert unit == "us"
    # the last unit comment wins, and an empty one stays empty
    p.write_text("# unit: us\nalpha 1\n  #unit:ms\n")
    assert read_labels(p) == ({"alpha": 1.0}, "ms")
    p.write_text("# unit: us\n# unit:\nalpha 1\n")
    assert read_labels(p)[1] == ""

    p.write_text("alpha 1 2\n")
    with pytest.raises(FormatError):
        read_labels(p)
    p.write_text("alpha twelve\n")
    with pytest.raises(FormatError):
        read_labels(p)
    p.write_text("a 1\nb 2\na 3\n")
    with pytest.raises(FormatError, match="times.txt:3: "):
        read_labels(p)


def test_dataset_rejects_nonpositive_labels():
    v = FeatureVector(tuple(0 for _ in range(42)))
    with pytest.raises(EmptyDatasetError):
        Dataset((DatasetRow("z", v, label=0.0),))
    with pytest.raises(EmptyDatasetError):
        Dataset((DatasetRow("z", v, label=-5.0),))
    ds = Dataset((DatasetRow("z", v, label=None), DatasetRow("y", v, label=2.0)))
    assert [r.sample_id for r in ds.labeled()] == ["y"]


def test_feature_vector_validation():
    with pytest.raises(DimensionMismatchError):
        FeatureVector((1.0,) * 41)
    with pytest.raises(DimensionMismatchError):
        FeatureVector((1.0,) * 43)
    bad = [0.0] * 42
    bad[3] = -1.0
    with pytest.raises(DimensionMismatchError):
        FeatureVector(tuple(bad))
    bad[3] = float("nan")
    with pytest.raises(DimensionMismatchError):
        FeatureVector(tuple(bad))
