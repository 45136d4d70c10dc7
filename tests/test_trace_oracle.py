"""Block-granular traces against an instruction-by-instruction oracle.

The trace builder counts block entries only and derives the opcode counts,
inst_miss and the block statistics from them.  The oracle here observes
every executed instruction instead, the way the counters were once kept,
and the trace bytes are pinned to those written by that earlier builder.
The generated code counts the trace inline, with bb_jump decided at
generation time wherever it can be; the call paths below are where it
cannot.  Its predictor and cache counts are checked against a replay of
the same events through the public models.
"""

import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from irtime import (
    GENERATOR_OPCODES, BranchPredictorTable, CacheConfig, CacheModel, Interpreter,
    ProbeSet, RunLimits, TraceBuilder, count_bb_jump,
    generate_program, parse_file, parse_module, run, write_trace,
)
from irtime.errors import StepLimitExceeded

from conftest import EXAMPLE_B, SAMPLES

# sha256 of write_trace output, recorded with the per-instruction builder
SAMPLE_TRACE_SHA256 = {
    "bubble_sort": "be782a2ec9a600c73f0dc89c4bc4345d12ce2f4082b19298e3b7f5f93f1c84b8",
    "dot_product": "3473c523f967c098a254981ec614aaafde01a3aa84d40a3abf2e9e3be778cd39",
    "fib_recursive": "82d75ee1bc012372e06a883c37b5db8a2257ad39d79d9e0127698c5b0d63c764",
    "float_mix": "c306405ef389fe807a72ebddb079c229321b71253a9796f401790375da374f18",
    "matmul4": "0d8a74c55c184cb8c83cfa9576d39fae446c4d69d5f77940885b55de886b2433",
    "memops": "11ce17d43d99af0f5e1823478d71c5b6427ef0c1b6cc0d69992ba1d2bbbcf9a7",
    "sum_loop": "c19f93b191b69742d2a2b4e418867fda48eb9761b1fb2354ae37375896ce2e72",
    "switch_dispatch": "61abf84fe4dd2164e8eacf5fa171d112cc0d2a061f6193f5c195d15b87d59520",
}
# over every GENERATOR_OPCODES program at GENERATED_COUNTS x GENERATED_SEEDS
GENERATED_TRACES_SHA256 = "9ed06be87aeb30a3256a999065e87b48ee7e48555c76f805305e3c478780eb7d"
GENERATED_COUNTS = (1, 7, 50)
GENERATED_SEEDS = (0, 3)


class InstructionOracle:
    """Counts opcodes, distinct static ids and block entries from the
    instruction stream alone.  A block is entered exactly when its first
    instruction executes; a return resumes its caller mid-block."""

    def __init__(self, module):
        self.where = {
            ins.static_id: (f"{f.name}:{b.label}", pos)
            for f in module.functions for b in f.blocks
            for pos, ins in enumerate(b.instructions)
        }
        self.ops, self.ids, self.blocks, self.entered = {}, set(), {}, []

    def on_instruction(self, static_id, opcode):
        self.ops[opcode] = self.ops.get(opcode, 0) + 1
        self.ids.add(static_id)
        block, pos = self.where[static_id]
        if pos == 0:
            self.blocks[block] = self.blocks.get(block, 0) + 1
            self.entered.append(block)

    def bb_jump(self):
        return count_bb_jump(zip(self.entered, self.entered[1:]))


def _modules():
    for path in sorted(SAMPLES.glob("*.ll")):
        yield path.stem, parse_file(path)
    for op in GENERATOR_OPCODES:
        for n in GENERATED_COUNTS:
            for seed in GENERATED_SEEDS:
                yield f"{op}-{n}-{seed}", parse_module(generate_program(op, n, seed))


def _trace_bytes(trace, tmp_path):
    path = tmp_path / "t.trace"
    write_trace(trace, path)
    return path.read_bytes()


def test_block_granular_trace_matches_instruction_oracle(tmp_path):
    generated = hashlib.sha256()
    for name, module in _modules():
        oracle = InstructionOracle(module)
        trace = run(module, probes=ProbeSet(instruction=oracle.on_instruction))
        assert trace.op_counts == oracle.ops, name
        assert trace.inst_miss == len(oracle.ids), name
        assert trace.block_counts == oracle.blocks, name
        assert trace.bb_jump == oracle.bb_jump(), name
        data = _trace_bytes(trace, tmp_path)
        if name in SAMPLE_TRACE_SHA256:
            assert hashlib.sha256(data).hexdigest() == SAMPLE_TRACE_SHA256[name], name
        else:
            generated.update(data)
    assert generated.hexdigest() == GENERATED_TRACES_SHA256


def test_extra_observer_leaves_trace_bytes_unchanged(samples_dir, tmp_path):
    module = parse_file(samples_dir / "fib_recursive.ll")
    oracle = InstructionOracle(module)
    observed = run(module, probes=ProbeSet(instruction=oracle.on_instruction))
    assert _trace_bytes(observed, tmp_path) == _trace_bytes(run(module), tmp_path)


def test_step_limit_is_charged_per_block():
    # EXAMPLE_B executes 62 instructions; the last block is `ret` alone
    module = parse_module(EXAMPLE_B)
    assert Interpreter(module, limits=RunLimits(max_steps=62)).execute() == 45
    with pytest.raises(StepLimitExceeded):
        Interpreter(module, limits=RunLimits(max_steps=61)).execute()


def test_steps_equal_trace_total(samples_dir):
    for path in sorted(samples_dir.glob("*.ll")):
        module = parse_file(path)
        interp = Interpreter(module)
        interp.execute()
        assert interp.steps == run(module).total_instructions(), path.name


# --- inline counting on call paths ------------------------------------------------

LEAF = """
define i32 @leaf(i32 %x) {
entry:
  ret i32 %x
}
"""

CALL_PATHS = {
    "two_calls_in_one_block": LEAF + """
define i32 @twice(i32 %x) {
entry:
  %c = icmp sgt i32 %x, 1
  br i1 %c, label %big, label %done

big:
  br label %done

done:
  ret i32 %x
}

define i32 @main() {
entry:
  %a = call i32 @leaf(i32 2)
  %b = call i32 @twice(i32 %a)
  %s = add i32 %a, %b
  br label %exit

exit:
  ret i32 %s
}
""",
    "call_in_a_back_edge_block": LEAF + """
define i32 @main() {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %j, %loop ]
  %k = call i32 @leaf(i32 %i)
  %j = add i32 %k, 1
  %c = icmp slt i32 %j, 5
  br i1 %c, label %loop, label %exit

exit:
  ret i32 %j
}
""",
    "ret_after_a_call": """
define i32 @pick(i32 %x) {
entry:
  %z = icmp eq i32 %x, 0
  br i1 %z, label %zero, label %other

zero:
  ret i32 7

other:
  ret i32 %x
}

define i32 @wrap(i32 %x) {
entry:
  %r = call i32 @pick(i32 %x)
  ret i32 %r
}

define i32 @main() {
entry:
  %a = call i32 @wrap(i32 0)
  %b = call i32 @wrap(i32 %a)
  %s = add i32 %a, %b
  ret i32 %s
}
""",
    "mutual_recursion": """
define i32 @even(i32 %n) {
entry:
  %z = icmp eq i32 %n, 0
  br i1 %z, label %yes, label %rec

yes:
  ret i32 1

rec:
  %m = sub i32 %n, 1
  %r = call i32 @odd(i32 %m)
  ret i32 %r
}

define i32 @odd(i32 %n) {
entry:
  %z = icmp eq i32 %n, 0
  br i1 %z, label %no, label %rec

no:
  ret i32 0

rec:
  %m = sub i32 %n, 1
  %r = call i32 @even(i32 %m)
  %c = icmp eq i32 %r, 1
  br i1 %c, label %rec, label %out

out:
  ret i32 %r
}

define i32 @main() {
entry:
  %a = call i32 @even(i32 7)
  %b = call i32 @odd(i32 4)
  %s = add i32 %a, %b
  ret i32 %s
}
""",
    "entry_block_returns": LEAF + """
define i32 @main() {
entry:
  %a = call i32 @leaf(i32 1)
  %b = call i32 @leaf(i32 %a)
  br label %body

body:
  %c = call i32 @leaf(i32 %b)
  %d = call i32 @leaf(i32 %c)
  ret i32 %d
}
""",
}


@pytest.mark.parametrize("name", sorted(CALL_PATHS))
def test_bb_jump_on_call_paths_matches_instruction_oracle(name):
    module = parse_module(CALL_PATHS[name])
    oracle, entered = InstructionOracle(module), []
    trace = run(module, probes=ProbeSet(instruction=oracle.on_instruction,
                                        block_enter=entered.append))
    assert trace.bb_jump == oracle.bb_jump() == count_bb_jump(zip(entered, entered[1:]))
    assert trace.block_counts == oracle.blocks
    assert trace.op_counts == oracle.ops


# --- inline predictor and cache counts against the public models ------------------

SMALL_CACHE = CacheConfig(cache_size=1024, line_size=16, associativity=4)


def _walk(placement, n, stride, x0):
    """An array walk in the style of the benchmark's memwalk programs: fill n
    i32 elements from a linear congruential sequence, then load each
    `stride`-th one, branch on one bit of it and store it back changed."""
    if placement == "global":
        head, base, setup = f"@buf = global [{n} x i32] zeroinitializer\n", "@buf", ""
    else:
        head = "declare ptr @malloc(i32)\n"
        base, setup = "%buf", f"  %buf = call ptr @malloc(i32 {4 * n})\n"
    return head + f"""
define i32 @main() {{
entry:
{setup}  br label %fill

fill:
  %i = phi i32 [ 0, %entry ], [ %i1, %fill ]
  %x = phi i32 [ {x0}, %entry ], [ %x1, %fill ]
  %xm = mul i32 %x, 1664525
  %x1 = add i32 %xm, 1013904223
  %pa = getelementptr i32, ptr {base}, i32 %i
  store i32 %x1, ptr %pa
  %i1 = add i32 %i, 1
  %cf = icmp ult i32 %i1, {n}
  br i1 %cf, label %fill, label %walk

walk:
  %j = phi i32 [ 0, %fill ], [ %j1, %join ]
  %s = phi i32 [ 0, %fill ], [ %s1, %join ]
  %pb = getelementptr i32, ptr {base}, i32 %j
  %v = load i32, ptr %pb
  %bit = and i32 %v, 65536
  %odd = icmp ne i32 %bit, 0
  br i1 %odd, label %then, label %else

then:
  %t = add i32 %v, 7
  br label %join

else:
  %e = xor i32 %v, 5
  br label %join

join:
  %w = phi i32 [ %t, %then ], [ %e, %else ]
  store i32 %w, ptr %pb
  %s1 = add i32 %s, %w
  %j1 = add i32 %j, {stride}
  %cw = icmp ult i32 %j1, {n}
  br i1 %cw, label %walk, label %exit

exit:
  ret i32 %s1
}}
"""


def _equivalence_modules():
    for path in sorted(SAMPLES.glob("*.ll")):
        yield path.stem, parse_file(path)
    for placement in ("global", "malloc"):
        for n, stride, x0 in ((200, 1, 12345), (700, 4, 99)):
            yield f"{placement}-{n}-{stride}", parse_module(_walk(placement, n, stride, x0))


def _replay(module, config):
    """The trace of `module` under `config`, and its predictor and cache
    counts replayed from the probe events through the public models."""
    events = []
    probes = ProbeSet(load=lambda a, n: events.append(("load", a)),
                      store=lambda a, n: events.append(("store", a)),
                      cond_branch=lambda site, taken: events.append((site, taken)))
    trace = run(module, probes=probes, cache_config=config)
    cache, predictor = CacheModel(config), BranchPredictorTable()
    want = dict.fromkeys(("br_hit", "br_miss", "load_hit", "load_miss", "store_hit",
                          "store_miss", "dirty_evictions"), 0)
    for what, value in events:
        if what in ("load", "store"):
            outcome = cache.access(value, what)
            want[f"{what}_{'hit' if outcome.hit else 'miss'}"] += 1
            want["dirty_evictions"] += outcome.evicted_dirty
        else:
            want["br_hit" if predictor.predict_and_update(what, value) else "br_miss"] += 1
    want["br_uncond"] = trace.op_counts.get("br", 0) - want["br_hit"] - want["br_miss"]
    return trace, want


@pytest.mark.parametrize("config", [CacheConfig(), SMALL_CACHE], ids=["default", "1k-16b-4way"])
def test_inline_counts_equal_a_replay_through_the_models(config):
    for name, module in _equivalence_modules():
        trace, want = _replay(module, config)
        assert {key: getattr(trace, key) for key in want} == want, name
        if config == SMALL_CACHE and name.endswith("-4"):
            assert want["load_miss"] and want["dirty_evictions"], name


BUF_WORDS = 32

# caches of 1 to 16 lines of 4 to 32 bytes, direct-mapped and single-set
# ones among them, most of them smaller than @buf
_GEOMETRIES = st.builds(lambda line, ways, sets: CacheConfig(line * ways * sets, line, ways),
                        st.sampled_from([4, 8, 16, 32]), st.sampled_from([1, 2, 4]),
                        st.sampled_from([1, 2, 4]))
# (is a store, index of an i32 of @buf)
_ACCESSES = st.lists(st.tuples(st.booleans(), st.integers(0, BUF_WORDS - 1)), max_size=5)


def _access_loop(head, arm, tail, callee, pattern, trips):
    """A loop of `trips` iterations over @buf, BUF_WORDS i32: the accesses
    `head`, then on iteration i, when bit i of `pattern` is set, those of
    `arm` and, when `callee` holds any, a call to a function that makes
    them, then `tail`."""
    def accesses(items, tag):
        lines = []
        for k, (is_store, word) in enumerate(items):
            p = f"%{tag}p{k}"
            lines.append(f"  {p} = getelementptr i32, ptr @buf, i32 {word}")
            lines.append(f"  store i32 %i, ptr {p}" if is_store
                         else f"  %{tag}v{k} = load i32, ptr {p}")
        return "".join(line + "\n" for line in lines)
    side, call = "", ""
    if callee:
        side = ("define void @side(i32 %i) {\nentry:\n"
                + accesses(callee, "s") + "  ret void\n}\n")
        call = "  call void @side(i32 %i)\n"
    return f"""@buf = global [{BUF_WORDS} x i32] zeroinitializer
{side}
define i32 @main() {{
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %i1, %latch ]
{accesses(head, "h")}  %sh = lshr i32 {pattern}, %i
  %bit = and i32 %sh, 1
  %c = icmp ne i32 %bit, 0
  br i1 %c, label %arm, label %latch

arm:
{accesses(arm, "a")}{call}  br label %latch

latch:
{accesses(tail, "t")}  %i1 = add i32 %i, 1
  %more = icmp ult i32 %i1, {trips}
  br i1 %more, label %loop, label %exit

exit:
  ret i32 0
}}
"""


# words A and B of @buf lie on two lines of one set of _DIRECT, a
# direct-mapped 64-byte cache of 32-byte lines
_A, _B, _DIRECT = 0, 16, CacheConfig(cache_size=64, line_size=32, associativity=1)


@settings(max_examples=150, deadline=None)
@given(config=_GEOMETRIES, head=_ACCESSES, arm=_ACCESSES, tail=_ACCESSES, callee=_ACCESSES,
       pattern=st.integers(0, 2**32 - 1), trips=st.integers(1, 32))
# store A; load B; store A: the load evicts A, so the second store misses
@example(config=_DIRECT, head=[(True, _A), (False, _B), (True, _A)], arm=[], tail=[],
         callee=[], pattern=0, trips=3)
# load A; store A; load B: the store makes A dirty, so B's miss evicts a
# dirty line; and the taken outcomes T T N T pass a site through WT to ST
@example(config=_DIRECT, head=[(False, _A), (True, _A), (False, _B)], arm=[], tail=[],
         callee=[], pattern=0b1011, trips=4)
def test_skipped_updates_equal_a_replay_on_drawn_loops(config, head, arm, tail, callee,
                                                       pattern, trips):
    module = parse_module(_access_loop(head, arm, tail, callee, pattern, trips))
    trace, want = _replay(module, config)
    assert {key: getattr(trace, key) for key in want} == want


def test_touch_runs_once_per_line_change():
    # a sequential fill of n i32 stores, then a walk of n loads, under
    # 32-byte lines: the cache is touched once per line of each
    n = 800
    module = parse_module(f"""@buf = global [{n} x i32] zeroinitializer

define i32 @main() {{
entry:
  br label %fill

fill:
  %i = phi i32 [ 0, %entry ], [ %i1, %fill ]
  %pa = getelementptr i32, ptr @buf, i32 %i
  store i32 %i, ptr %pa
  %i1 = add i32 %i, 1
  %cf = icmp ult i32 %i1, {n}
  br i1 %cf, label %fill, label %walk

walk:
  %j = phi i32 [ 0, %fill ], [ %j1, %walk ]
  %s = phi i32 [ 0, %fill ], [ %s1, %walk ]
  %pb = getelementptr i32, ptr @buf, i32 %j
  %v = load i32, ptr %pb
  %s1 = add i32 %s, %v
  %j1 = add i32 %j, 1
  %cw = icmp ult i32 %j1, {n}
  br i1 %cw, label %walk, label %exit

exit:
  ret i32 %s1
}}
""")
    builder = TraceBuilder(module, CacheModel(CacheConfig()))
    stores, touch = [], builder.touch

    def counting(addr, is_store):
        stores.append(is_store)
        return touch(addr, is_store)

    builder.touch = counting
    Interpreter(module, trace=builder).execute()
    assert stores.count(True) == stores.count(False) == n // 8
    trace = builder.build()
    assert (trace.store_hit, trace.store_miss) == (n - n // 8, n // 8)
    # the buffer fits the default cache, so the walk misses no line
    assert (trace.load_hit, trace.load_miss) == (n, 0)


def test_trace_builder_has_no_event_handlers():
    for name in ("on_block_enter", "on_cond_branch", "on_load", "on_store"):
        assert not hasattr(TraceBuilder, name), name
