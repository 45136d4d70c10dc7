"""Spans around calls into irtime's public functions, recorded from outside.

`Tracer.install` rebinds each function in TARGETS, in its own module and in
every module that imported it by name, to a wrapper that records a span:
name, start, end and the span open on the same thread when it began.
Spans stay in memory and are written once, when the run ends.  The layer of
a span is the irtime module it belongs to (`cli` for a subcommand the
benchmark runs through `irtime.cli.main`).
"""

import contextlib
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


def _forest_nodes(forest):
    return sum(len(t.feature) for t in forest.trees)


# (module, function or Class.method, count taken from the result)
TARGETS = (
    ("irtime.irparser", "parse_module", lambda m: m.instruction_count()),
    ("irtime.irparser", "parse_file", None),
    ("irtime.corpus", "generate_program", None),
    ("irtime.corpus", "generate_corpus", None),
    ("irtime.interp", "run", lambda t: t.total_instructions()),
    ("irtime.interp", "Interpreter.execute", None),
    ("irtime.trace", "extract_features", None),
    ("irtime.trace", "write_trace", None),
    ("irtime.trace", "read_trace", None),
    ("irtime.trace", "write_features", None),
    ("irtime.trace", "read_features", None),
    ("irtime.trace", "read_labels", None),
    ("irtime.models", "fit_linear", None),
    ("irtime.models", "fit_huber", None),
    ("irtime.models", "fit_forest", None),
    ("irtime.models", "fit_mlp", None),
    ("irtime.models", "save_model", None),
    ("irtime.models", "load_model", None),
    ("irtime.models", "TrainedModel.predict", None),
    ("irtime.forest", "fit_forest", _forest_nodes),
    ("irtime.forest", "RandomForest.predict", None),
    ("irtime.mlp", "train", None),
    ("irtime.metrics", "evaluate", None),
)


class Tracer:
    def __init__(self):
        self.spans = []         # (id, name, start, end, parent id, count)
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the body; the body may store a count in the
        yielded one-item list.  Yields None when the tracer is inactive."""
        if not self.active:
            yield None
            return
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        count = [None]
        start = time.perf_counter()
        try:
            yield count
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, count[0]))

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as slot:
                result = fn(*args, **kwargs)
                if slot is not None and count is not None:
                    slot[0] = count(result)
            return result

        return traced

    def install(self):
        for modname, qual, count in TARGETS:
            mod = importlib.import_module(modname)
            owner, attr = mod, qual
            if "." in qual:
                cls, attr = qual.split(".")
                owner = getattr(mod, cls)
            orig = getattr(owner, attr)
            wrapped = self._wrap(f"{modname.split('.')[1]}.{qual}", orig, count)
            self._rebind(owner, attr, orig, wrapped)
            if owner is mod:
                for other in list(sys.modules.values()):
                    name = getattr(other, "__name__", "")
                    if other is mod or not (name.startswith("irtime") or name == "workloads"):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is orig:
                            self._rebind(other, key, orig, wrapped)

    @contextlib.contextmanager
    def tracing(self):
        """Record spans around the public functions in the body."""
        self.install()
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.uninstall()

    def _rebind(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def write(self, path, setup_spans):
        """The spans of the traced setup and of the traced rounds, as JSON."""
        rows = lambda spans: [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                               "parent": s[4], "count": s[5]} for s in sorted(spans)]
        with open(path, "w") as fh:
            json.dump({"setup": rows(setup_spans), "rounds": rows(self.spans)}, fh)


def layer_of(name):
    return name.split(".")[0]


def summarize(spans):
    """Inclusive seconds per span name and per layer (a span nested in one
    of its own kind is not counted twice), self seconds per layer, and the
    summed counts per span name."""
    by_id = {s[0]: s for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s[4] is not None:
            child[s[4]] += s[3] - s[2]

    def nested_in(s, key, keyfn):
        p = s[4]
        while p is not None:
            if keyfn(by_id[p][1]) == key:
                return True
            p = by_id[p][4]
        return False

    inclusive, layer_incl, self_s, counts = (defaultdict(float) for _ in range(4))
    for s in spans:
        dur = s[3] - s[2]
        name, layer = s[1], layer_of(s[1])
        self_s[layer] += dur - child[s[0]]
        if not nested_in(s, name, lambda n: n):
            inclusive[name] += dur
        if not nested_in(s, layer, layer_of):
            layer_incl[layer] += dur
        if s[5] is not None:
            counts[name] += s[5]
    return inclusive, layer_incl, self_s, counts
