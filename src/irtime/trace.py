"""Execution traces, the fixed 42-component feature vector, and file formats.

A trace holds everything the probes observed during one run: per-block entry
counts, per-opcode execution counts, cache and branch outcomes, memory
routine byte volumes, the cold-instruction count, and diagnostics.  Feature
extraction projects a trace onto the canonical feature order used by every
model in the package; the order is frozen and must never change, since model
files and feature CSVs index into it positionally.
"""

import io
import math
import re
from dataclasses import dataclass, field, fields

from .branch import START, outcome_table
from .errors import (
    FormatError, DimensionMismatchError, MissingLabelError, EmptyDatasetError,
)

# Canonical feature order.  Counter components (br_*, load_*, store_*) split
# their opcode by predictor/cache outcome; memset/memcpy/calloc/malloc are
# byte volumes, not call counts; inst_miss and bb_jump come from the cold
# instruction analysis and the block transition analysis.
FEATURE_NAMES = (
    "add", "fadd", "sub", "fsub", "and", "or", "xor", "shl", "lshr", "ashr",
    "icmp", "fcmp", "zext", "sext", "fptosi", "uitofp", "sitofp", "fneg",
    "sdiv", "fdiv", "mul", "udiv", "urem", "fmul", "srem",
    "br_hit", "br_miss", "br_uncond",
    "store_miss", "store_hit", "load_miss", "load_hit",
    "switch", "getelementptr", "phi", "alloca",
    "memset", "memcpy", "calloc", "malloc",
    "inst_miss", "bb_jump",
)
FEATURE_COUNT = len(FEATURE_NAMES)
_FEATURE_INDEX = {name: i for i, name in enumerate(FEATURE_NAMES)}

# Executed but deliberately absent from the feature table.
UNTRACKED_OPCODES = ("ret", "call")


def _counter(key, feature):
    """A scalar counter: its `key` in a trace file and the feature it fills,
    None for a diagnostic that feeds no model."""
    return field(default=0, metadata={"key": key, "feature": feature})


@dataclass(frozen=True)
class ExecutionTrace:
    block_counts: dict = field(default_factory=dict)   # "func:label" -> entries
    op_counts: dict = field(default_factory=dict)      # opcode -> executions
    load_hit: int = _counter("cache.load_hit", "load_hit")
    load_miss: int = _counter("cache.load_miss", "load_miss")
    store_hit: int = _counter("cache.store_hit", "store_hit")
    store_miss: int = _counter("cache.store_miss", "store_miss")
    br_hit: int = _counter("branch.br_hit", "br_hit")
    br_miss: int = _counter("branch.br_miss", "br_miss")
    br_uncond: int = _counter("branch.br_uncond", "br_uncond")
    bb_jump: int = _counter("branch.bb_jump", "bb_jump")
    inst_miss: int = _counter("icache.inst_miss", "inst_miss")
    memset_bytes: int = _counter("mem.memset", "memset")
    memcpy_bytes: int = _counter("mem.memcpy", "memcpy")
    calloc_bytes: int = _counter("mem.calloc", "calloc")
    malloc_bytes: int = _counter("mem.malloc", "malloc")
    dirty_evictions: int = _counter("diag.dirty_evictions", None)
    uninitialized_loads: int = _counter("diag.uninitialized_loads", None)

    def total_instructions(self) -> int:
        return sum(self.op_counts.values())


# (trace-file key, ExecutionTrace field, feature or None) per scalar counter,
# in trace-file order; every other feature is an opcode's execution count
SCALAR_COUNTERS = tuple((f.metadata["key"], f.name, f.metadata["feature"])
                        for f in fields(ExecutionTrace) if "key" in f.metadata)
_FIELD_OF_KEY = {key: name for key, name, _ in SCALAR_COUNTERS}
_FIELD_OF_FEATURE = {feature: name for _, name, feature in SCALAR_COUNTERS if feature}


# Slots of TraceBuilder.counts, which the generated segment code adds to:
# bb_jump, predictor hits and misses, then three slots each for loads and
# for stores, one per code that cache.touch returns (0 hit, 1 clean miss,
# 2 dirty miss), then the byte volume of each memory routine.  The hit
# slots, BR_HIT, LOADS and STORES, are added to but never read: the code
# skips the update of an access or a branch that cannot change the state
# of its model, always a hit, so build() derives the hits instead.
JUMP, BR_HIT, BR_MISS, LOADS, STORES = 0, 1, 2, 3, 6
VOLUMES = {"memset": 9, "memcpy": 10, "calloc": 11, "malloc": 12}
# by predictor state code: (next code, BR_HIT or BR_MISS) for each outcome
TAKEN = outcome_table(True, BR_HIT, BR_MISS)
NOT_TAKEN = outcome_table(False, BR_HIT, BR_MISS)
# the state code that each outcome leaves unchanged while scoring a hit
# (strongly taken for TAKEN, strongly not-taken for NOT_TAKEN): a site in
# it needs no update
TAKEN_FIXED, NOT_TAKEN_FIXED = (
    next(code for code, step in enumerate(table) if step == (code, BR_HIT))
    for table in (TAKEN, NOT_TAKEN))


class TraceBuilder:
    """The counts of one traced run, and the ExecutionTrace built from them.

    Pass the builder as an Interpreter's `trace=`, as run() does: the
    generated segment code then counts into its lists inline, never calling
    back into the builder, and each counting line holds only static ids and
    slots as literals.  A ProbeSet passed beside it still sees every event.
    - `entries[block static id]`: entries into the block, added on each
      edge into it;
    - `states[instruction static id]`: the two-bit predictor state code of
      each conditional `br` site, updated through TAKEN and NOT_TAKEN
      unless the outcome leaves it unchanged;
    - `counts`: the slots above; `touch` is the cache's LRU update, and
      `line_shift` turns an address into its cache line.
    The cache instance is owned by the caller and updated only by `touch`,
    which the code calls only for an access that can change the cache.

    build() reads only block entries, misses, jumps and volumes: every block
    a finished run enters runs to completion, so it derives the opcode
    counts and inst_miss exactly from the entry counts and each block's
    instructions, the load and store hits from the executed loads and
    stores, and the predictor hits from the entries of blocks that end in
    a conditional `br`.
    """

    def __init__(self, module, cache):
        # static ids are dense from 0, in source order (see irmodel)
        self._blocks = [(f"{f.name}:{b.label}", b.instructions)
                        for f in module.functions for b in f.blocks]
        # the static ids of the blocks that end in a conditional br
        self._deciding = [bid for bid, (_, insts) in enumerate(self._blocks)
                          if insts[-1].opcode == "br" and insts[-1].operands]
        self.entries = [0] * len(self._blocks)
        self.states = [START] * module.instruction_count()
        self.counts = [0] * (max(VOLUMES.values()) + 1)
        self.touch = cache.touch
        self.line_shift = cache.config.line_size.bit_length() - 1

    def build(self, uninitialized_loads: int = 0) -> ExecutionTrace:
        blocks, ops, inst_miss = {}, {}, 0
        for (name, instructions), count in zip(self._blocks, self.entries):
            if count:
                blocks[name] = count
                inst_miss += len(instructions)
                for ins in instructions:
                    ops[ins.opcode] = ops.get(ins.opcode, 0) + count
        decided = sum(self.entries[bid] for bid in self._deciding)
        c = self.counts
        load_miss, store_miss = c[LOADS + 1] + c[LOADS + 2], c[STORES + 1] + c[STORES + 2]
        return ExecutionTrace(
            block_counts=blocks, op_counts=ops,
            load_hit=ops.get("load", 0) - load_miss, load_miss=load_miss,
            store_hit=ops.get("store", 0) - store_miss, store_miss=store_miss,
            br_hit=decided - c[BR_MISS], br_miss=c[BR_MISS],
            br_uncond=ops.get("br", 0) - decided,
            bb_jump=c[JUMP], inst_miss=inst_miss,
            dirty_evictions=c[LOADS + 2] + c[STORES + 2],
            uninitialized_loads=uninitialized_loads,
            **{_FIELD_OF_FEATURE[kind]: c[slot] for kind, slot in VOLUMES.items()})


# --- feature vectors -------------------------------------------------------


@dataclass(frozen=True)
class FeatureVector:
    """42 non-negative numbers in FEATURE_NAMES order."""

    values: tuple

    def __post_init__(self):
        if len(self.values) != FEATURE_COUNT:
            raise DimensionMismatchError(
                f"feature vector needs {FEATURE_COUNT} components, got {len(self.values)}"
            )
        for name, v in zip(FEATURE_NAMES, self.values):
            if not math.isfinite(v) or v < 0:
                raise DimensionMismatchError(
                    f"feature '{name}' must be a non-negative finite number, got {v!r}"
                )

    def __getitem__(self, key):
        if isinstance(key, str):
            return self.values[_FEATURE_INDEX[key]]
        return self.values[key]


def extract_features(trace: ExecutionTrace) -> FeatureVector:
    """Project a trace onto the canonical feature order."""
    ops = trace.op_counts
    return FeatureVector(tuple(
        getattr(trace, _FIELD_OF_FEATURE[name]) if name in _FIELD_OF_FEATURE
        else ops.get(name, 0)
        for name in FEATURE_NAMES
    ))


# --- text files and traces ---------------------------------------------------


def write_lines(path, lines) -> None:
    """Write `lines` as UTF-8 text, each ended by a newline, whatever the
    platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_text(path, error):
    """The file at `path` decoded as UTF-8.  Where its bytes are not UTF-8,
    raises error(message, line, column), both counted from 1."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        column = len(head[head.rfind(b"\n") + 1:].decode("utf-8")) + 1
        raise error(f"byte 0x{data[exc.start]:02X} is not valid UTF-8",
                    head.count(b"\n") + 1, column) from None


def read_lines(path):
    """The lines of a UTF-8 text file that hold data, as (line number, line)
    pairs, and the unit of its last `# unit:` comment, or None.  Blank lines
    and `#` comments hold no data."""
    lines, unit = [], None
    content = read_text(path, lambda message, line, _: FormatError(message, path, line))
    # newline=None splits lines as reading in text mode does
    for lineno, raw in enumerate(io.StringIO(content, newline=None), start=1):
        line = raw.rstrip("\n")
        text = line.strip()
        if text.startswith("#"):
            comment = text[1:].strip()
            if comment.startswith("unit:"):
                unit = comment[len("unit:"):].strip()
        elif text:
            lines.append((lineno, line))
    return lines, unit


# A block name in a trace file is escaped as the IR quotes names: a
# backslash, a control character or DEL becomes a backslash and two hex
# digits, so no name can break a line or its tab.
_UNSAFE = re.compile(r"[\x00-\x1f\x7f\\]")
_ESCAPE = re.compile(r"\\([0-9A-Fa-f]{2})?")


def _escape(name):
    return _UNSAFE.sub(lambda m: f"\\{ord(m.group()):02X}", name)


def _unescape(name, path, lineno):
    def char(m):
        if m.group(1) is None:
            raise FormatError("backslash without two hex digits in a block name",
                              path=path, line=lineno)
        return chr(int(m.group(1), 16))
    return _ESCAPE.sub(char, name)


def write_trace(trace: ExecutionTrace, path) -> None:
    """Write one counter per line as `key<TAB>value`; block and opcode keys
    are sorted so output bytes are reproducible."""
    lines = ["# execution trace, format v1"]
    lines += [f"block.{_escape(name)}\t{trace.block_counts[name]}"
              for name in sorted(trace.block_counts)]
    lines += [f"op.{name}\t{trace.op_counts[name]}" for name in sorted(trace.op_counts)]
    lines += [f"{key}\t{getattr(trace, name)}" for key, name, _ in SCALAR_COUNTERS]
    write_lines(path, lines)


def read_trace(path) -> ExecutionTrace:
    blocks, ops, scalars = {}, {}, {}
    lines, _ = read_lines(path)
    for lineno, line in lines:
        if "\t" not in line:
            raise FormatError("expected key<TAB>value", path=path, line=lineno)
        key, _, value = line.partition("\t")
        try:
            count = int(value)
        except ValueError:
            raise FormatError(f"non-integer counter value {value!r}",
                              path=path, line=lineno) from None
        if count < 0:
            raise FormatError(f"negative counter {key}", path=path, line=lineno)
        if key.startswith("block."):
            counts, name = blocks, _unescape(key[len("block."):], path, lineno)
        elif key.startswith("op."):
            counts, name = ops, key[len("op."):]
        elif key in _FIELD_OF_KEY:
            counts, name = scalars, _FIELD_OF_KEY[key]
        else:
            raise FormatError(f"unknown counter key {key!r}", path=path, line=lineno)
        if name in counts:
            raise FormatError(f"counter {key!r} listed twice", path=path, line=lineno)
        counts[name] = count
    missing = [key for key, name, _ in SCALAR_COUNTERS if name not in scalars]
    if missing:
        raise FormatError(f"missing counters: {', '.join(missing)}", path=path)
    return ExecutionTrace(block_counts=blocks, op_counts=ops, **scalars)


# --- datasets ---------------------------------------------------------------


@dataclass(frozen=True)
class DatasetRow:
    sample_id: str
    features: FeatureVector
    label: float | None = None


@dataclass(frozen=True)
class Dataset:
    rows: tuple
    unit: str = "ns"

    def __post_init__(self):
        for row in self.rows:
            if row.label is not None and not (math.isfinite(row.label) and row.label > 0):
                raise EmptyDatasetError(
                    f"label for '{row.sample_id}' must be positive, got {row.label!r}"
                )

    def __len__(self):
        return len(self.rows)

    def labeled(self) -> tuple:
        """Rows carrying a label, in file order."""
        return tuple(r for r in self.rows if r.label is not None)


def _format_number(v) -> str:
    if isinstance(v, bool):
        raise DimensionMismatchError("boolean is not a feature value")
    if isinstance(v, int) or (isinstance(v, float) and v.is_integer()):
        return str(int(v))
    return repr(float(v))


def write_features(dataset: Dataset, path) -> None:
    """CSV with a unit comment, a header row, and one row per sample."""
    has_labels = any(r.label is not None for r in dataset.rows)
    lines = [f"# unit: {dataset.unit}"]
    header = ["sample_id", *FEATURE_NAMES]
    if has_labels:
        header.append("label")
    lines.append(",".join(header))
    for row in dataset.rows:
        cells = [row.sample_id, *(_format_number(v) for v in row.features.values)]
        if has_labels:
            if row.label is None:
                raise MissingLabelError(row.sample_id)
            cells.append(_format_number(row.label))
        lines.append(",".join(cells))
    write_lines(path, lines)


def read_features(path) -> Dataset:
    """Read a feature CSV.  Header columns may arrive in any order; they are
    mapped back onto the canonical order.  Unknown, missing, or duplicate
    columns are an error, and so is a sample id listed twice."""
    header = None
    rows, seen = [], set()
    lines, unit = read_lines(path)
    for lineno, line in lines:
        cells = line.split(",")
        if header is None:
            header = [c.strip() for c in cells]
            if "sample_id" not in header:
                raise FormatError("header must contain sample_id", path=path, line=lineno)
            for name in ("sample_id", "label"):
                if header.count(name) > 1:
                    raise FormatError(f"header lists {name} twice", path=path, line=lineno)
            names = [c for c in header if c not in ("sample_id", "label")]
            if sorted(names) != sorted(FEATURE_NAMES):
                missing = set(FEATURE_NAMES) - set(names)
                extra = set(names) - set(FEATURE_NAMES)
                parts = []
                if missing:
                    parts.append(f"missing {sorted(missing)}")
                if extra:
                    parts.append(f"unknown {sorted(extra)}")
                raise DimensionMismatchError(
                    f"feature header does not match the {FEATURE_COUNT} canonical "
                    f"names: {'; '.join(parts) or 'duplicated columns'}"
                )
            continue
        if len(cells) != len(header):
            raise FormatError(
                f"row has {len(cells)} cells, header has {len(header)}",
                path=path, line=lineno,
            )
        record = dict(zip(header, cells))
        if record["sample_id"] in seen:
            raise FormatError(f"sample {record['sample_id']!r} listed twice",
                              path=path, line=lineno)
        seen.add(record["sample_id"])
        try:
            values = tuple(float(record[name]) for name in FEATURE_NAMES)
        except ValueError as e:
            raise FormatError(f"bad feature value ({e})", path=path, line=lineno) from None
        label = None
        if "label" in record and record["label"] != "":
            try:
                label = float(record["label"])
            except ValueError:
                raise FormatError(f"bad label {record['label']!r}",
                                  path=path, line=lineno) from None
        rows.append(DatasetRow(record["sample_id"], FeatureVector(values), label))
    if header is None:
        raise FormatError("no header row", path=path)
    return Dataset(tuple(rows), unit="ns" if unit is None else unit)


def read_labels(path):
    """Two-column text: sample_id and time per line.  Returns (labels, unit)
    where unit is taken from an optional `# unit:` comment."""
    lines, unit = read_lines(path)
    labels = {}
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError("expected `sample_id value`", path=path, line=lineno)
        try:
            value = float(parts[1])
        except ValueError:
            raise FormatError(f"bad time value {parts[1]!r}",
                              path=path, line=lineno) from None
        if parts[0] in labels:
            raise FormatError(f"sample {parts[0]!r} listed twice", path=path, line=lineno)
        labels[parts[0]] = value
    return labels, unit
