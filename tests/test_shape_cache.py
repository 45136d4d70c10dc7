"""Generated code shared by module shape, against code generated afresh.

`Interpreter` looks a module's generated code up by the key of
`interp._shape` and binds its constants by slot, so a module whose shape
was built before generates nothing.  Wherever two modules get equal keys,
the code that the first generated must be the code the second generates
on its own: the same source, the same bound values (floats compared by
their bits), and the same run.  The modules here are the samples and the
GENERATOR_OPCODES programs with their literals perturbed where the
generator branches on them: divisors, shift amounts, `fdiv` divisors,
switch case values, folded getelementptr offsets, and constants made
equal to or different from one another.
"""

import re
import struct

import pytest
from hypothesis import event, given, settings, strategies as st

from irtime import (
    GENERATOR_OPCODES, CacheConfig, CacheModel, Interpreter, ProbeSet, RunLimits, TraceBuilder,
    generate_program, parse_module,
)
from irtime import interp
from irtime.cli import main as cli_main
from irtime.errors import IrTimeError
from irtime.irmodel import Const

from conftest import SAMPLES, generated_sources

PROGRAMS = {p.stem: p.read_text() for p in sorted(SAMPLES.glob("*.ll"))}
PROGRAMS.update({op: generate_program(op, 20, 0) for op in GENERATOR_OPCODES})
# a perturbed loop bound may run for long; both runs of a pair stop here
LIMITS = RunLimits(max_steps=5_000)

_DIVISIONS = ("udiv", "sdiv", "urem", "srem")


def _key(module, limits=LIMITS, line_size=32, probes=None, counting=True):
    builder = TraceBuilder(module, CacheModel(CacheConfig(line_size=line_size)))
    addrs = Interpreter(module).memory.global_addrs
    return interp._shape(module, addrs, limits, probes, builder if counting else None)[0]


def _literals(module):
    """(instruction, Const) for each literal operand, phi values included."""
    return [(ins, op) for f in module.functions for b in f.blocks for ins in b.instructions
            for op in ins.operands + [value for value, _ in ins.incoming]
            if op.__class__ is Const]


def _divisors(module):
    return [(ins, op) for ins, op in _literals(module)
            if ins.opcode in _DIVISIONS and op is ins.operands[-1]]


def _shift_amounts(module):
    return [(ins, op) for ins, op in _literals(module)
            if ins.opcode in ("shl", "lshr", "ashr") and op is ins.operands[-1]]


def _float_divisors(module):
    return [(ins, op) for ins, op in _literals(module)
            if ins.opcode == "fdiv" and op is ins.operands[-1]]


def _instructions(module, opcode):
    return [ins for f in module.functions for b in f.blocks for ins in b.instructions
            if ins.opcode == opcode]


def _int_literals(module):
    return [(ins, op) for ins, op in _literals(module) if op.type.is_int()]


def _set(op, value):
    """Give the integer Const `op` `value`, as a bit pattern of its width."""
    op.value = value & ((1 << op.type.int_bits) - 1)


def _divisor(data, module):
    ins, op = data.draw(st.sampled_from(_divisors(module)))
    bits = op.type.int_bits
    _set(op, data.draw(st.sampled_from([0, 1, -1, 7, -7, 1 << (bits - 1)])))


def _shift(data, module):
    ins, op = data.draw(st.sampled_from(_shift_amounts(module)))
    bits = op.type.int_bits
    _set(op, data.draw(st.sampled_from([1, bits - 1, bits, bits + 1])))


def _float_divisor(data, module):
    ins, op = data.draw(st.sampled_from(_float_divisors(module)))
    op.value = data.draw(st.sampled_from([0.0, -0.0, float("nan"), 2.5]))


def _switch(data, module):
    ins = data.draw(st.sampled_from(_instructions(module, "switch")))
    values = data.draw(st.permutations([value for value, _ in ins.cases]))
    ins.cases = [(value, label) for value, (_, label) in zip(values, ins.cases)]


def _gep(data, module):
    ins = data.draw(st.sampled_from(_instructions(module, "getelementptr")))
    ins.gep = (data.draw(st.sampled_from([0, 4, 8, -4])), ins.gep[1])


def _equal(data, module):
    (_, a), (_, b) = data.draw(st.lists(st.sampled_from(_int_literals(module)), min_size=2,
                                        max_size=2, unique_by=lambda site: id(site[1])))
    _set(b, a.value)


def _different(data, module):
    (_, a), (_, b) = data.draw(st.lists(st.sampled_from(_int_literals(module)), min_size=2,
                                        max_size=2, unique_by=lambda site: id(site[1])))
    _set(b, a.value + 1)


# perturbation -> (what it changes, whether a module can take it)
PERTURBATIONS = {
    "divisor": (_divisor, _divisors),
    "shift": (_shift, _shift_amounts),
    "fdiv": (_float_divisor, _float_divisors),
    "switch": (_switch, lambda m: _instructions(m, "switch")),
    "gep": (_gep, lambda m: _instructions(m, "getelementptr")),
    "equal": (_equal, lambda m: len(_int_literals(m)) > 1),
    "different": (_different, lambda m: len(_int_literals(m)) > 1),
}
TAKERS = {kind: [name for name, text in PROGRAMS.items() if takes(parse_module(text))]
          for kind, (_, takes) in PERTURBATIONS.items()}


def _built(module, cache):
    """An Interpreter of `module` with a TraceBuilder, its code looked up in
    `cache`, and the builder."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interp, "_CODE", cache)
        builder = TraceBuilder(module, CacheModel(CacheConfig()))
        return Interpreter(module, None, LIMITS, trace=builder), builder


def _bound(interpreter):
    """name -> (type, value) of each constant bound in the namespace of the
    interpreter's code; a float's value is its bits."""
    namespace = interpreter._segments[1].__globals__
    return {name: (type(v), struct.pack("<d", v) if type(v) is float else v)
            for name, v in namespace.items() if re.fullmatch(r"k\d+", name)}


def _outcome(interpreter, builder):
    try:
        result = ("value", interpreter.execute())
    except IrTimeError as exc:
        result = (type(exc).__name__, str(exc))
    return result, interpreter.steps, builder.build(interpreter.uninitialized_loads)


def _assert_shared_code_is_fresh_code(original, perturbed):
    """Build `original`, then `perturbed` through the same cache: on a hit,
    its code must be what it generates on its own."""
    same = _key(original) == _key(perturbed)
    with pytest.MonkeyPatch.context() as mp:
        sources = generated_sources(mp)
        shared = interp._CodeCache(4)
        _built(original, shared)
        hit = _built(perturbed, shared)
        assert len(sources) == (1 if same else 2)
        if not same:
            return False
        fresh = _built(perturbed, interp._CodeCache(0))
    assert sources[1] == sources[0]
    assert _bound(hit[0]) == _bound(fresh[0])
    assert _outcome(*hit) == _outcome(*fresh)
    return True


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(PERTURBATIONS)))
def test_a_module_of_a_known_shape_runs_the_code_it_would_generate(data, kind):
    text = PROGRAMS[data.draw(st.sampled_from(TAKERS[kind]))]
    original, perturbed = parse_module(text), parse_module(text)
    PERTURBATIONS[kind][0](data, perturbed)
    event("the same shape" if _assert_shared_code_is_fresh_code(original, perturbed)
          else "another shape")


# (program, a pattern of one literal, its replacement, whether the key
# stays the same)
KEYED_LITERALS = [
    ("sdiv", r"(sdiv i32 %i, )\d+", "9", True),
    ("sdiv", r"(sdiv i32 %i, )\d+", "0", False),
    ("sdiv", r"(sdiv i32 %i, )\d+", "-7", False),
    ("sdiv", r"(sdiv i32 %i, )\d+", "-2147483648", False),
    ("srem", r"(srem i32 %i, )\d+", "-7", True),
    ("srem", r"(srem i32 %i, )\d+", "0", False),
    ("udiv", r"(udiv i32 %i, )\d+", "-7", True),
    ("udiv", r"(udiv i32 %i, )\d+", "0", False),
    ("shl", r"(shl i32 %i, )\d+", "31", True),
    ("shl", r"(shl i32 %i, )\d+", "32", False),
    ("lshr", r"(lshr i32 %i, )\d+", "33", False),
    ("ashr", r"(ashr i32 %i, )\d+", "40", True),
    ("fdiv", r"(fdiv double %facc, )[\d.]+", "0x7FF8000000000000", True),
    ("fdiv", r"(fdiv double %facc, )[\d.]+", "-0.0", False),
    ("fdiv", r"(fdiv double %facc, )[\d.]+", "0.0", False),
    ("icmp", r"(icmp slt i32 %i.next, )\d+", "7", True),
    ("switch_dispatch", r"(i32 )2(?=, label %c2)", "7", True),
    ("switch_dispatch", r"(i32 )0(?=, label %c0)", "5", False),
]


def _with(program, pattern, replacement):
    text, n = re.subn(pattern, rf"\g<1>{replacement}", PROGRAMS[program])
    assert n == 1, pattern
    return parse_module(text)


@pytest.mark.parametrize("program, pattern, replacement, same", KEYED_LITERALS,
                         ids=[f"{p}:{r}" for p, _, r, _ in KEYED_LITERALS])
def test_the_key_holds_by_value_only_what_the_generator_branches_on(program, pattern,
                                                                    replacement, same):
    original, perturbed = parse_module(PROGRAMS[program]), _with(program, pattern, replacement)
    assert (_key(original) == _key(perturbed)) == same
    assert _assert_shared_code_is_fresh_code(original, perturbed) == same


def test_the_limits_the_line_size_and_the_probes_enter_the_key():
    module = parse_module(PROGRAMS["memops"])
    keys = [_key(module), _key(module, limits=RunLimits(max_steps=5_001)),
            _key(module, limits=RunLimits(max_steps=5_000, max_stack_bytes=4096)),
            _key(module, limits=RunLimits(max_steps=5_000, max_heap_bytes=4096)),
            _key(module, line_size=64), _key(module, counting=False),
            _key(module, probes=ProbeSet(block_enter=print)),
            _key(module, probes=ProbeSet(load=print))]
    assert len(set(keys)) == len(keys)
    assert _key(module, probes=ProbeSet(load=print)) == _key(module, probes=ProbeSet(load=repr))


def test_each_shape_is_generated_once_per_process(tmp_path, monkeypatch):
    # the pipeline's corpus: one shape for each opcode, whatever its count
    ll, counts = tmp_path / "ll", ",".join(str(n) for n in range(100, 1001, 100))
    assert cli_main(["gen-corpus", "--opcode", ",".join(GENERATOR_OPCODES), "--counts", counts,
                     "--seed", "1", "--out", str(ll)]) == 0
    cache, keys, built = interp._CodeCache(256), [], []
    add, build = cache.add, interp._Generator.build
    monkeypatch.setattr(interp, "_CODE", cache)
    monkeypatch.setattr(cache, "add", lambda key, code: keys.append(key) or add(key, code))
    monkeypatch.setattr(interp._Generator, "build",
                        lambda self: built.append(self) or build(self))
    assert cli_main(["simulate", str(ll), "--out", str(tmp_path / "tr")]) == 0
    assert len(list((tmp_path / "tr").glob("*.trace"))) == 250
    assert len(built) == len(keys) == len(set(keys)) == len(GENERATOR_OPCODES)
