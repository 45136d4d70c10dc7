"""Execution traces, the fixed 42-component feature vector, and file formats.

A trace holds everything the probes observed during one run: per-block entry
counts, per-opcode execution counts, cache and branch outcomes, memory
routine byte volumes, the cold-instruction count, and diagnostics.  Feature
extraction projects a trace onto the canonical feature order used by every
model in the package; the order is frozen and must never change, since model
files and feature CSVs index into it positionally.
"""

import math
from dataclasses import dataclass, field

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

# Opcodes whose executions appear 1:1 as a feature component.
_PLAIN_OPCODES = (
    "add", "fadd", "sub", "fsub", "and", "or", "xor", "shl", "lshr", "ashr",
    "icmp", "fcmp", "zext", "sext", "fptosi", "uitofp", "sitofp", "fneg",
    "sdiv", "fdiv", "mul", "udiv", "urem", "fmul", "srem",
    "switch", "getelementptr", "phi", "alloca",
)

# Executed but deliberately absent from the feature table.
UNTRACKED_OPCODES = ("ret", "call")


@dataclass(frozen=True)
class ExecutionTrace:
    block_counts: dict = field(default_factory=dict)   # "func:label" -> entries
    op_counts: dict = field(default_factory=dict)      # opcode -> executions
    load_hit: int = 0
    load_miss: int = 0
    store_hit: int = 0
    store_miss: int = 0
    br_hit: int = 0
    br_miss: int = 0
    br_uncond: int = 0
    bb_jump: int = 0
    inst_miss: int = 0
    memset_bytes: int = 0
    memcpy_bytes: int = 0
    calloc_bytes: int = 0
    malloc_bytes: int = 0
    dirty_evictions: int = 0
    uninitialized_loads: int = 0

    def total_instructions(self) -> int:
        return sum(self.op_counts.values())


class TraceBuilder:
    """Accumulates probe events into an ExecutionTrace.

    Wire its `on_*` methods into a ProbeSet, drive the interpreter, then
    call build().  The cache and predictor instances are owned by the
    caller; the builder only consults them through the events.

    Only block entries are counted: every block a finished run enters runs
    to completion, so build() derives the opcode counts and inst_miss
    exactly from the entry counts and each block's instructions.
    """

    def __init__(self, module, cache, predictor):
        self._blocks = {
            b.static_id: (f"{f.name}:{b.label}", b.instructions)
            for f in module.functions
            for b in f.blocks
        }
        self._cache = cache
        self._predictor = predictor
        self._entries = dict.fromkeys(self._blocks, 0)
        self._last_block = None
        self._load_hit = self._load_miss = 0
        self._store_hit = self._store_miss = 0
        self._br_hit = self._br_miss = 0
        self._bb_jump = 0
        self._volumes = {"memset": 0, "memcpy": 0, "calloc": 0, "malloc": 0}
        self._dirty_evictions = 0

    # probe handlers

    def on_block_enter(self, block_id):
        self._entries[block_id] += 1
        if block_id != self._last_block:
            if self._last_block is not None:
                self._bb_jump += 1      # a transition that leaves its block
            self._last_block = block_id

    def on_load(self, addr, nbytes):
        outcome = self._cache.access(addr, "load")
        if outcome.hit:
            self._load_hit += 1
        else:
            self._load_miss += 1
        if outcome.evicted_dirty:
            self._dirty_evictions += 1

    def on_store(self, addr, nbytes):
        outcome = self._cache.access(addr, "store")
        if outcome.hit:
            self._store_hit += 1
        else:
            self._store_miss += 1
        if outcome.evicted_dirty:
            self._dirty_evictions += 1

    def on_cond_branch(self, site_id, taken):
        if self._predictor.predict_and_update(site_id, taken):
            self._br_hit += 1
        else:
            self._br_miss += 1

    def on_mem_intrinsic(self, kind, nbytes):
        self._volumes[kind] += nbytes

    def build(self, uninitialized_loads: int = 0) -> ExecutionTrace:
        blocks, ops, inst_miss = {}, {}, 0
        for block_id, count in self._entries.items():
            if count:
                name, instructions = self._blocks[block_id]
                blocks[name] = count
                inst_miss += len(instructions)
                for ins in instructions:
                    ops[ins.opcode] = ops.get(ins.opcode, 0) + count
        br_total = ops.get("br", 0)
        return ExecutionTrace(
            block_counts=blocks,
            op_counts=ops,
            load_hit=self._load_hit,
            load_miss=self._load_miss,
            store_hit=self._store_hit,
            store_miss=self._store_miss,
            br_hit=self._br_hit,
            br_miss=self._br_miss,
            br_uncond=br_total - self._br_hit - self._br_miss,
            bb_jump=self._bb_jump,
            inst_miss=inst_miss,
            memset_bytes=self._volumes["memset"],
            memcpy_bytes=self._volumes["memcpy"],
            calloc_bytes=self._volumes["calloc"],
            malloc_bytes=self._volumes["malloc"],
            dirty_evictions=self._dirty_evictions,
            uninitialized_loads=uninitialized_loads,
        )


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
    values = []
    for name in _PLAIN_OPCODES[:25]:
        values.append(ops.get(name, 0))
    values.extend([trace.br_hit, trace.br_miss, trace.br_uncond,
                   trace.store_miss, trace.store_hit,
                   trace.load_miss, trace.load_hit])
    for name in ("switch", "getelementptr", "phi", "alloca"):
        values.append(ops.get(name, 0))
    values.extend([trace.memset_bytes, trace.memcpy_bytes,
                   trace.calloc_bytes, trace.malloc_bytes,
                   trace.inst_miss, trace.bb_jump])
    return FeatureVector(tuple(values))


# --- trace files -------------------------------------------------------------

_SCALAR_KEYS = (
    ("cache.load_hit", "load_hit"),
    ("cache.load_miss", "load_miss"),
    ("cache.store_hit", "store_hit"),
    ("cache.store_miss", "store_miss"),
    ("branch.br_hit", "br_hit"),
    ("branch.br_miss", "br_miss"),
    ("branch.br_uncond", "br_uncond"),
    ("branch.bb_jump", "bb_jump"),
    ("icache.inst_miss", "inst_miss"),
    ("mem.memset", "memset_bytes"),
    ("mem.memcpy", "memcpy_bytes"),
    ("mem.calloc", "calloc_bytes"),
    ("mem.malloc", "malloc_bytes"),
    ("diag.dirty_evictions", "dirty_evictions"),
    ("diag.uninitialized_loads", "uninitialized_loads"),
)


def write_trace(trace: ExecutionTrace, path) -> None:
    """Write one counter per line as `key<TAB>value`; block and opcode keys
    are sorted so output bytes are reproducible."""
    lines = ["# execution trace, format v1"]
    for name in sorted(trace.block_counts):
        lines.append(f"block.{name}\t{trace.block_counts[name]}")
    for name in sorted(trace.op_counts):
        lines.append(f"op.{name}\t{trace.op_counts[name]}")
    for key, attr in _SCALAR_KEYS:
        lines.append(f"{key}\t{getattr(trace, attr)}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace(path) -> ExecutionTrace:
    blocks = {}
    ops = {}
    scalars = {}
    known = dict(_SCALAR_KEYS)
    seen = set()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
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
                blocks[key[len("block."):]] = count
            elif key.startswith("op."):
                ops[key[len("op."):]] = count
            elif key in known:
                scalars[known[key]] = count
                seen.add(key)
            else:
                raise FormatError(f"unknown counter key {key!r}", path=path, line=lineno)
    missing = [key for key, _ in _SCALAR_KEYS if key not in seen]
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
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_features(path) -> Dataset:
    """Read a feature CSV.  Header columns may arrive in any order; they are
    mapped back onto the canonical order.  Unknown, missing, or duplicate
    feature columns are an error."""
    unit = "ns"
    header = None
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.lstrip().startswith("#"):
                stripped = line.lstrip()[1:].strip()
                if stripped.startswith("unit:"):
                    unit = stripped[len("unit:"):].strip()
                continue
            cells = line.split(",")
            if header is None:
                header = [c.strip() for c in cells]
                if "sample_id" not in header:
                    raise FormatError("header must contain sample_id", path=path, line=lineno)
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
    return Dataset(tuple(rows), unit=unit)


def read_labels(path):
    """Two-column text: sample_id and time per line.  Returns (labels, unit)
    where unit is taken from an optional `# unit:` comment."""
    labels = {}
    unit = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                stripped = line[1:].strip()
                if stripped.startswith("unit:"):
                    unit = stripped[len("unit:"):].strip()
                continue
            parts = line.split()
            if len(parts) != 2:
                raise FormatError("expected `sample_id value`", path=path, line=lineno)
            try:
                labels[parts[0]] = float(parts[1])
            except ValueError:
                raise FormatError(f"bad time value {parts[1]!r}",
                                  path=path, line=lineno) from None
    return labels, unit
