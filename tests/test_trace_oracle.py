"""Block-granular traces against an instruction-by-instruction oracle.

The trace builder counts block entries only and derives the opcode counts,
inst_miss and the block statistics from them.  The oracle here observes
every executed instruction instead, the way the counters were once kept,
and the trace bytes are pinned to those written by that earlier builder.
"""

import hashlib

import pytest

from irtime import (
    GENERATOR_OPCODES, Interpreter, ProbeSet, RunLimits, count_bb_jump,
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
