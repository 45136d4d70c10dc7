"""Loops compiled into one generated function, against block-by-block dispatch.

With `interp._MAX_COPIES` at 0 no loop is compiled: every block has a
segment function of its own and returns to `Interpreter.execute`.  Under
that setting and under the default, each program here must give the same
probe events of all six kinds (each with the `steps` a probe reads), the
same value or error type and message, the same `steps`, and the same
`write_trace` bytes, at no step limit and at limits that fall throughout
the run.  The programs are the samples, hand-written loops that reach each
rule of the loop generator, and random reducible loop nests.
"""

import pytest
from hypothesis import given, settings, strategies as st

from irtime import (
    CacheConfig, CacheModel, Interpreter, ProbeSet, RunLimits, TraceBuilder, parse_module,
    write_trace,
)
from irtime import interp as interp_module
from irtime.errors import IrTimeError, ParseError

from conftest import SAMPLES


def _observe(module, limits, path):
    """(probe events, value or error, steps, trace bytes) of one run of main
    with every probe kind and a TraceBuilder, and the same but the events
    of a run with the builder alone."""
    outcomes = []
    for probed in (True, False):
        events, interp = [], None

        def recorder(kind):
            return lambda *args: events.append((kind, args, interp.steps))
        builder = TraceBuilder(module, CacheModel(CacheConfig()))
        probes = ProbeSet(**{kind: recorder(kind) for kind in ProbeSet.__slots__})
        interp = Interpreter(module, probes if probed else None, limits, trace=builder)
        try:
            result = ("value", interp.execute())
        except IrTimeError as exc:
            result = (type(exc).__name__, str(exc))
        write_trace(builder.build(interp.uninitialized_loads), path)
        outcomes.append((events, result, interp.steps, path.read_bytes()))
    return outcomes


def _compiled_loops(module):
    return sum(len(interp_module._natural_loops(f)) for f in module.functions)


def _assert_dispatch_equivalent(text, path):
    """The run of `text` is the same with and without loop functions at no
    step limit and at about 40 limits spread evenly over its steps; returns
    the number of loops compiled."""
    module = parse_module(text)
    compiled = _observe(module, None, path)
    total = compiled[0][2]
    limits = range(1, total + 1, max(1, total // 40))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interp_module, "_MAX_COPIES", 0)
        assert _compiled_loops(module) == 0
        assert _observe(module, None, path) == compiled
        dispatched = [_observe(module, RunLimits(max_steps=limit), path) for limit in limits]
    for limit, want in zip(limits, dispatched):
        assert _observe(module, RunLimits(max_steps=limit), path) == want, limit
    return _compiled_loops(module)


@pytest.mark.parametrize("sample", sorted(SAMPLES.glob("*.ll")), ids=lambda p: p.stem)
def test_samples_run_the_same_with_loop_functions(sample, tmp_path):
    _assert_dispatch_equivalent(sample.read_text(), tmp_path / "t")


# the memwalk shape: a diamond in the body, a phi of its join read after the
# loop, a result of the join read after the loop, loads and stores
DIAMOND = """
@a = global [16 x i32] [i32 5, i32 2, i32 9, i32 4, i32 7, i32 6, i32 1, i32 8,
                        i32 3, i32 12, i32 11, i32 10, i32 15, i32 14, i32 13, i32 16]

define i32 @main() {
entry:
  br label %walk

walk:
  %j = phi i32 [ 0, %entry ], [ %j.next, %join ]
  %sum = phi i32 [ 0, %entry ], [ %sum.next, %join ]
  %q = getelementptr [16 x i32], ptr @a, i32 0, i32 %j
  %v = load i32, ptr %q
  %bit = and i32 %v, 1
  %odd = icmp ne i32 %bit, 0
  br i1 %odd, label %odd.path, label %even.path

odd.path:
  %vo = add i32 %v, 17
  br label %join

even.path:
  %ve = xor i32 %v, 5
  br label %join

join:
  %v2 = phi i32 [ %vo, %odd.path ], [ %ve, %even.path ]
  store i32 %v2, ptr %q
  %sum.next = add i32 %sum, %v2
  %j.next = add i32 %j, 1
  %jc = icmp slt i32 %j.next, 16
  br i1 %jc, label %walk, label %done

done:
  %r = add i32 %sum.next, %v2
  ret i32 %r
}
"""

# a switch of six cases in the body, one case leaving the loop early, and a
# phi of the exit block over both exits
SWITCH = """
define i32 @main() {
entry:
  br label %head

head:
  %i = phi i32 [ 0, %entry ], [ %i.next, %latch ]
  %acc = phi i32 [ 1, %entry ], [ %acc.next, %latch ]
  %sel = urem i32 %acc, 7
  switch i32 %sel, label %other [
    i32 0, label %c0
    i32 1, label %c1
    i32 2, label %c0
    i32 3, label %c3
    i32 4, label %c1
    i32 6, label %out
  ]

c0:
  %v0 = add i32 %acc, 3
  br label %latch

c1:
  %v1 = mul i32 %acc, 3
  br label %latch

c3:
  %v3 = sub i32 %acc, 1
  br label %latch

other:
  %v4 = add i32 %acc, 8
  br label %latch

latch:
  %acc.next = phi i32 [ %v0, %c0 ], [ %v1, %c1 ], [ %v3, %c3 ], [ %v4, %other ]
  %i.next = add i32 %i, 1
  %go = icmp ult i32 %i.next, 20
  br i1 %go, label %head, label %out

out:
  %last = phi i32 [ %i, %head ], [ %i.next, %latch ]
  %r = add i32 %last, %acc
  ret i32 %r
}
"""

# an sdiv by zero in an inlined block, on the fourth iteration
DIVIDES = """
define i32 @main() {
entry:
  br label %head

head:
  %i = phi i32 [ 0, %entry ], [ %i.next, %tail ]
  %acc = phi i32 [ 0, %entry ], [ %acc.next, %tail ]
  %i.next = add i32 %i, 1
  %low = icmp ult i32 %i, 8
  br i1 %low, label %divide, label %tail

divide:
  %d = sub i32 3, %i
  %q = sdiv i32 60, %d
  br label %tail

tail:
  %add = phi i32 [ %q, %divide ], [ 1, %head ]
  %acc.next = add i32 %acc, %add
  %go = icmp ult i32 %i.next, 10
  br i1 %go, label %head, label %exit

exit:
  ret i32 %acc.next
}
"""

# a result of one arm read at the join without a phi, which the arm does not
# dominate: rejected while parsing
UNDOMINATED = """
define i32 @main() {
entry:
  br label %head

head:
  %i = phi i32 [ 0, %entry ], [ %i.next, %join ]
  %i.next = add i32 %i, 1
  %odd = and i32 %i, 1
  %c = icmp eq i32 %odd, 0
  br i1 %c, label %left, label %join

left:
  %x = mul i32 %i, 5
  br label %join

join:
  %y = add i32 %x, %i
  %go = icmp ult i32 %i.next, 6
  br i1 %go, label %head, label %exit

exit:
  ret i32 %y
}
"""

# two entries into the cycle a <-> b: neither dominates the other
IRREDUCIBLE = """
define i32 @main(i32 %n) {
entry:
  %c = icmp eq i32 %n, 0
  br i1 %c, label %a, label %b

a:
  %x = phi i32 [ 0, %entry ], [ %y.next, %b ]
  %x.next = add i32 %x, 1
  %ga = icmp ult i32 %x.next, 20
  br i1 %ga, label %b, label %exit

b:
  %y = phi i32 [ 3, %entry ], [ %x.next, %a ]
  %y.next = add i32 %y, 2
  %gb = icmp ult i32 %y.next, 20
  br i1 %gb, label %a, label %exit

exit:
  %r = phi i32 [ %x.next, %a ], [ %y.next, %b ]
  ret i32 %r
}
"""
# the same, where the first iteration skips the arm
UNASSIGNED = UNDOMINATED.replace("icmp eq i32 %odd", "icmp ne i32 %odd")
# the same result read by the header's phi at the end of the join
UNDOMINATED_PHI = UNDOMINATED.replace("[ %i.next, %join ]", "[ %x, %join ]").replace(
    "%y = add i32 %x, %i", "%y = add i32 %i, 1")

# a loop left from its header and from its body, and a result of the header
# read in the body and after the loop: stored on the exits, as its block
# dominates both
EXITS = """
define i32 @main() {
entry:
  br label %head

head:
  %i = phi i32 [ 0, %entry ], [ %i.next, %body ]
  %sq = mul i32 %i, %i
  %more = icmp ult i32 %i, 20
  br i1 %more, label %body, label %exit

body:
  %i.next = add i32 %i, 1
  %big = icmp ugt i32 %sq, 100
  br i1 %big, label %exit, label %head

exit:
  %r = add i32 %sq, %i
  ret i32 %r
}
"""

# a block the entry does not reach, which reads a register before its
# definition and one whose definition does not dominate it, and has an edge
# into the loop's body: accepted, as LLVM accepts it; the block is never
# compiled, so the loop still runs in its header's function
UNREACHABLE = """
define i32 @main() {
entry:
  br label %head

head:
  %i = phi i32 [ 0, %entry ], [ %i.next, %body ]
  %more = icmp ult i32 %i, 6
  br i1 %more, label %body, label %exit

body:
  %i.next = add i32 %i, 1
  br label %head

dead:
  %y = add i32 %z, %i.next
  %z = mul i32 %y, 2
  %d = icmp eq i32 %z, 0
  br i1 %d, label %body, label %exit

exit:
  %r = phi i32 [ %i, %head ], [ %z, %dead ]
  ret i32 %r
}
"""


def _over_cap(diamonds):
    """A loop of `diamonds` diamonds in a row, so 1 + 4 * (2 ** diamonds - 1)
    block copies: 29 for three, 61 for four."""
    lines = ["define i32 @main() {", "entry:", "  br label %head", "head:",
             f"  %i = phi i32 [ 0, %entry ], [ %i.next, %j{diamonds - 1} ]"]
    value = "%i"
    for k in range(diamonds):
        lines += [f"  %b{k} = and i32 %i, {1 << k}", f"  %c{k} = icmp ne i32 %b{k}, 0",
                  f"  br i1 %c{k}, label %l{k}, label %r{k}",
                  f"l{k}:", f"  %x{k} = add i32 {value}, {k + 1}", f"  br label %j{k}",
                  f"r{k}:", f"  %y{k} = xor i32 {value}, {k + 3}", f"  br label %j{k}",
                  f"j{k}:", f"  %v{k} = phi i32 [ %x{k}, %l{k} ], [ %y{k}, %r{k} ]"]
        value = f"%v{k}"
    lines += ["  %i.next = add i32 %i, 1", "  %go = icmp ult i32 %i.next, 6",
              "  br i1 %go, label %head, label %exit", "exit:", f"  ret i32 {value}", "}"]
    return "\n".join(lines) + "\n"


def _switch_chain(blocks):
    """A loop through `blocks` blocks, each a switch over 300 cases whose one
    edge on sits seven `if` arms deep in the generated search: nested past
    what Python's parser accepts when all are inlined, though it takes only
    one copy of each block."""
    lines = ["define i32 @main() {", "entry:", "  br label %b0", "b0:",
             f"  %i = phi i32 [ 0, %entry ], [ %i.next, %b{blocks - 1} ]"]
    for k in range(1, blocks):
        cases = " ".join(f"i32 {c}, label %y" for c in range(1, 300))
        lines += [f"  switch i32 %i, label %x [ i32 0, label %b{k} {cases} ]", f"b{k}:"]
    lines += ["  %i.next = add i32 %i, 1", "  %go = icmp ult i32 %i.next, 3",
              "  br i1 %go, label %b0, label %x", "x:", "  ret i32 %i", "y:", "  ret i32 7", "}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text, compiled", [
    (DIAMOND, 1), (SWITCH, 1), (DIVIDES, 1), (EXITS, 1), (UNREACHABLE, 1),
    (IRREDUCIBLE, 0), (_over_cap(3), 1), (_over_cap(4), 0),
], ids=["diamond", "switch", "divides", "exits", "unreachable", "irreducible",
        "at_cap", "over_cap"])
def test_loops_run_the_same_with_loop_functions(text, compiled, tmp_path):
    assert _assert_dispatch_equivalent(text, tmp_path / "t") == compiled


@pytest.mark.parametrize("text, want", [
    (UNDOMINATED, "18:0: this use of '%x' is not dominated by its definition in '%left'"),
    (UNASSIGNED, "18:0: this use of '%x' is not dominated by its definition in '%left'"),
    (UNDOMINATED_PHI, "7:0: this use of '%x' is not dominated by its definition in '%left'"),
], ids=["undominated", "unassigned", "undominated_phi"])
def test_loops_reading_an_undominated_register_are_rejected_while_parsing(text, want):
    with pytest.raises(ParseError) as info:
        parse_module(text)
    assert str(info.value) == want


def test_a_loop_nested_too_deep_returns_to_the_dispatcher():
    module = parse_module(_switch_chain(25))
    assert _compiled_loops(module) == 0
    assert Interpreter(module).execute() == 7     # i = 1 takes case 1 to %y


def test_the_hand_written_loops_reach_their_faults(tmp_path):
    results = {name: _observe(parse_module(text), None, tmp_path / "t")[0][1]
               for name, text in (("divides", DIVIDES), ("exits", EXITS),
                                  ("unreachable", UNREACHABLE))}
    assert results == {
        "divides": ("DivisionByZero", "integer division by zero"),
        "exits": ("value", 11 * 11 + 11),       # left from the body, as 121 > 100
        "unreachable": ("value", 6),
    }


# --- random reducible loop nests ----------------------------------------------

_LEAF = st.one_of(st.tuples(st.just("update"), st.sampled_from(("add", "xor", "mul")),
                            st.integers(1, 1000)),
                  st.tuples(st.just("store"), st.integers(0, 1000)),
                  st.tuples(st.just("break"), st.integers(0, 11)))


def _extend(inner):
    body = st.lists(inner, max_size=3)
    return st.one_of(
        st.tuples(st.just("if"), st.integers(0, 11), body, body),
        st.tuples(st.just("switch"), st.lists(body, min_size=1, max_size=5)),
        st.tuples(st.just("loop"), st.integers(1, 4), body))


_PROGRAMS = st.tuples(st.integers(0, 2 ** 31 - 1),
                      st.lists(st.recursive(_LEAF, _extend, max_leaves=10), max_size=4))


class _Emitter:
    """IR text for a statement tree: an `acc` global updated in place,
    stores into a global array indexed by the innermost loop counter, if/else
    and `switch` that join with a phi, counted loops whose exit block has a
    phi over every exit, and early exits taken on one bit of `acc`."""

    def __init__(self):
        self.blocks, self.n = [], 0

    def name(self, prefix):
        self.n += 1
        return f"{prefix}{self.n}"

    def start(self, label):
        self.label = label
        self.blocks.append(f"{label}:")

    def emit(self, line):
        self.blocks.append(f"  {line}")

    def acc(self):
        value = self.name("%a")
        self.emit(f"{value} = load i32, ptr @acc")
        return value

    def add_to_acc(self, value):
        total = self.name("%t")
        self.emit(f"{total} = add i32 {self.acc()}, {value}")
        self.emit(f"store i32 {total}, ptr @acc")

    def test_bit(self, bit):
        masked, test = self.name("%m"), self.name("%c")
        self.emit(f"{masked} = and i32 {self.acc()}, {1 << bit}")
        self.emit(f"{test} = icmp ne i32 {masked}, 0")
        return test

    def statements(self, items, loop):
        for item in items:
            getattr(self, "_" + item[0])(*item[1:], loop=loop)

    def _update(self, op, k, loop):
        value = self.name("%u")
        self.emit(f"{value} = {op} i32 {self.acc()}, {k}")
        self.emit(f"store i32 {value}, ptr @acc")

    def _store(self, k, loop):
        index, addr, value = self.name("%x"), self.name("%p"), self.name("%s")
        self.emit(f"{index} = and i32 {loop['counter'] if loop else 0}, 7")
        self.emit(f"{addr} = getelementptr [8 x i32], ptr @g, i32 0, i32 {index}")
        self.emit(f"{value} = add i32 {self.acc()}, {k}")
        self.emit(f"store i32 {value}, ptr {addr}")

    def _break(self, bit, loop):
        if loop is None:
            return
        test, rest = self.test_bit(bit), self.name("rest")
        self.emit(f"br i1 {test}, label %{loop['exit']}, label %{rest}")
        loop["exits"].append((loop["counter"], self.label))
        self.start(rest)

    def _arms(self, arms, loop):
        """Each arm's statements, then a phi at the join of the arm numbers."""
        join, ends = self.name("join"), []
        for k, (label, items) in enumerate(arms):
            self.start(label)
            self.statements(items, loop)
            self.emit(f"br label %{join}")
            ends.append(f"[ {k + 1}, %{self.label} ]")
        self.start(join)
        arm = self.name("%arm")
        self.emit(f"{arm} = phi i32 {', '.join(ends)}")
        self.add_to_acc(arm)

    def _if(self, bit, then, other, loop):
        test, yes, no = self.test_bit(bit), self.name("then"), self.name("else")
        self.emit(f"br i1 {test}, label %{yes}, label %{no}")
        self._arms([(yes, then), (no, other)], loop)

    def _switch(self, arms, loop):
        labels = [self.name("case") for _ in arms]
        value = self.name("%v")
        self.emit(f"{value} = urem i32 {self.acc()}, {len(arms) + 1}")
        cases = " ".join(f"i32 {k}, label %{label}" for k, label in enumerate(labels[1:]))
        self.emit(f"switch i32 {value}, label %{labels[0]} [ {cases} ]")
        self._arms(list(zip(labels, arms)), loop)

    def _loop(self, trips, items, loop):
        head, latch, out = self.name("head"), self.name("latch"), self.name("out")
        counter, step = self.name("%i"), self.name("%n")
        self.emit(f"br label %{head}")
        pre = self.label
        self.start(head)
        self.emit(f"{counter} = phi i32 [ 0, %{pre} ], [ {step}, %{latch} ]")
        loop = {"counter": counter, "exit": out, "exits": []}
        self.statements(items, loop)
        self.emit(f"br label %{latch}")
        self.start(latch)
        go = self.name("%go")
        self.emit(f"{step} = add i32 {counter}, 1")
        self.emit(f"{go} = icmp ult i32 {step}, {trips}")
        self.emit(f"br i1 {go}, label %{head}, label %{out}")
        self.start(out)
        exits = loop["exits"] + [(step, latch)]
        last = self.name("%last")
        self.emit(f"{last} = phi i32 {', '.join(f'[ {v}, %{b} ]' for v, b in exits)}")
        self.add_to_acc(last)
        if len(exits) == 1:     # the latch dominates the exit
            self.add_to_acc(step)

    def program(self, seed, items):
        self.start("entry")
        self.statements(items, None)
        result = self.acc()
        self.emit(f"ret i32 {result}")
        return (f"@acc = global i32 {seed}\n@g = global [8 x i32] zeroinitializer\n\n"
                "define i32 @main() {\n" + "\n".join(self.blocks) + "\n}\n")


@settings(max_examples=60, deadline=None)
@given(program=_PROGRAMS, limit=st.one_of(st.none(), st.integers(1, 400)))
def test_random_loop_nests_run_the_same_with_loop_functions(tmp_path_factory, program, limit):
    text = _Emitter().program(*program)
    module = parse_module(text)
    path = tmp_path_factory.getbasetemp() / "nest.trace"
    limits = RunLimits(max_steps=limit) if limit else None
    compiled = _observe(module, limits, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interp_module, "_MAX_COPIES", 0)
        assert _observe(module, limits, path) == compiled
