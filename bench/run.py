#!/usr/bin/env python3
"""Benchmark of irtime: loops, memwalk and pipeline.

    python3 bench/run.py --workload loops --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                  # every workload, each in its own process

One run sets its workload up SETUP_REPEATS times, then repeats whole rounds
of the workload's operations until --seconds have passed, checks every
round's outputs, and prints its figures; the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
With --trace 0 the metrics are BENCHMARK.json's end-to-end ones.  With
--trace 1 the run sets up once more with spans around irtime's public
functions, then alternates untraced rounds and rounds with those spans, and
reports the per-layer metrics, including the tracing overhead between the
two kinds of round.  Results, the environment and the
spans are also written under bench/out/.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

# One thread of BLAS: the benchmark's load is this process alone.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 21
CALIBRATION_REF_S = 0.003   # calibration() on the 2-core reference VM at a typical moment
HOST_TIMED = ("setup_s", "wall_s", "sim_steps_per_s", "samples_per_s", "train_s")
WORKLOADS = ("loops", "memwalk", "pipeline")
LAYERS = ("irparser", "corpus", "interp", "trace", "models", "forest", "mlp",
          "metrics", "cli")


class Context:
    def __init__(self, seed, workdir, tracer):
        self.seed = seed
        self.root = ROOT
        self.workdir = workdir
        self.tracer = tracer
        self.steps = {}     # operation -> simulated instructions
        self.values = {}    # deterministic results such as held-out APE
        self.failed = 0


def environment():
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "platform": platform.platform()}


def calibration():
    """Seconds taken by a fixed pure-Python loop that uses nothing of irtime.
    Timed between operations, it tracks how fast the machine runs."""
    t0 = time.perf_counter()
    d, s = {}, 0
    for i in range(12000):
        d[i & 1023] = s
        s = (s + (i ^ (s >> 3))) & 0xFFFF_FFFF
    return time.perf_counter() - t0


def run_rounds(wl, seconds, errors, tracer=None):
    """Whole rounds until `seconds` have passed.  With a tracer, rounds
    alternate untraced and traced, so both kinds see the same drift of the
    machine.  Returns, per kind of round (False: untraced, True: traced),
    the samples per record name in reference seconds and in host seconds
    and the round count, and the names that are operations.  A round's
    samples are scaled by CALIBRATION_REF_S over the median calibration time
    of that round."""
    samples = {False: defaultdict(list), True: defaultdict(list)}
    host = {False: defaultdict(list), True: defaultdict(list)}
    rounds = {False: 0, True: 0}
    ops = set()
    t_end = time.perf_counter() + seconds
    while (rounds[False] == 0 or (tracer and rounds[True] == 0)
           or time.perf_counter() < t_end):
        traced = tracer is not None and rounds[False] > rounds[True]
        records, cal = [], []

        def record(name, dt, op=True):
            records.append((name, dt, op))
            cal.append(calibration())
        try:
            with tracer.tracing() if traced else contextlib.nullcontext():
                wl.round(record)
        except Exception as exc:    # a failed check or a crash ends the run
            errors.append(f"round {sum(rounds.values())}: {type(exc).__name__}: {exc}")
            break
        factor = CALIBRATION_REF_S / statistics.median(cal)
        for name, dt, op in records:
            samples[traced][name].append(dt * factor)
            host[traced][name].append(dt)
            if op:
                ops.add(name)
        rounds[traced] += 1
    return samples, host, rounds, ops


def end_to_end(wl, samples, ops, setup_s, ctx):
    med = {k: statistics.median(v) for k, v in samples.items()}
    m = {"setup_s": setup_s,
         "wall_s": sum(med[k] for k in ops),
         "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    m.update(wl.metrics(med))
    for k, v in ctx.values.items():
        m[k] = v
    return m


def per_layer(setup_spans, round_spans, rounds, extras, overhead_pct):
    """Span figures of one traced setup plus one traced round, with the
    workload's `extras` measured outside the rounds."""
    from tracing import summarize
    once, each = summarize(setup_spans), summarize(round_spans)
    inclusive, layer_incl, self_s, counts = (
        {k: a.get(k, 0.0) + b.get(k, 0.0) / rounds for k in a.keys() | b.keys()}
        for a, b in zip(once, each))
    inc = lambda *names: sum(inclusive.get(n, 0.0) for n in names)
    parse_s = layer_incl.get("irparser", 0.0)
    m = {
        "irparser.parse_s": parse_s,
        "irparser.insts_per_s":
            counts.get("irparser.parse_module", 0) / parse_s if parse_s else 0.0,
        "corpus.generate_s": layer_incl.get("corpus", 0.0),
        "interp.steps": counts.get("interp.run", 0),
        "trace.extract_s": inc("trace.extract_features"),
        "trace.write_trace_s": inc("trace.write_trace"),
        "trace.read_trace_s": inc("trace.read_trace"),
        "trace.features_io_s": inc("trace.read_features", "trace.write_features",
                                   "trace.read_labels"),
        "models.fit_s.linear": inc("models.fit_linear"),
        "models.fit_s.huber": inc("models.fit_huber"),
        "forest.fit_s": inc("forest.fit_forest"),
        "forest.predict_s": inc("forest.RandomForest.predict"),
        "forest.nodes": counts.get("forest.fit_forest", 0),
        "mlp.fit_s": inc("mlp.train"),
        "models.save_s": inc("models.save_model"),
        "models.load_s": inc("models.load_model"),
        "metrics.evaluate_s": inc("metrics.evaluate"),
        "cli.simulate_s": inc("cli.simulate"),
        "cli.features_s": inc("cli.features"),
        "cli.train_s": inc("cli.train"),
        "cli.predict_s": inc("cli.predict"),
        "cli.eval_s": inc("cli.eval"),
        "tracing.overhead_pct": overhead_pct,
    }
    for layer in LAYERS:
        m[f"self_s.{layer}"] = self_s.get(layer, 0.0)
    m.update(extras)
    return m


def run_one(args, spec):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    tracer = Tracer()
    ctx = Context(args.seed, workdir, tracer)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](ctx)
    errors = []
    metrics, host, setup_spans = {}, {}, []
    try:
        if args.trace:
            wl.setup()
            with tracer.tracing():
                wl.setup()
            setup_spans, tracer.spans = tracer.spans, []
        else:
            setup_times, setup_cal = [], []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                wl.setup()
                setup_times.append(time.perf_counter() - t0)
                setup_cal.append(calibration())
            setup_host = statistics.median(setup_times)
            setup_s = setup_host * CALIBRATION_REF_S / statistics.median(setup_cal)
        wl.expect()
        extras = wl.layers() if args.trace else {}
        samples, host_samples, rounds, ops = run_rounds(
            wl, args.seconds, errors, tracer if args.trace else None)
        attempted = len(ops) * sum(rounds.values())
        if not args.trace and rounds[False]:
            metrics = end_to_end(wl, samples[False], ops, setup_s, ctx)
            host = end_to_end(wl, host_samples[False], ops, setup_host, ctx)
        if args.trace and rounds[True]:
            tracer.write(OUT / f"spans-{tag}.json", setup_spans)
            wall = {k: sum(statistics.median(samples[k][n]) for n in ops) for k in rounds}
            overhead = 100.0 * (wall[True] / wall[False] - 1)
            metrics = {**ctx.values,
                       **per_layer(setup_spans, tracer.spans, rounds[True], extras, overhead)}
        if not errors:
            try:
                wl.verify()
            except Exception as exc:
                errors.append(f"verify: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    for name in units:
        metrics.setdefault(name, 0.0)
    result = {"correct": not errors, "attempted": max(attempted, 1), "failed": ctx.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    env = environment()
    unscaled = {k: host[k] for k in HOST_TIMED if k in host}
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "rounds": sum(rounds.values()), "errors": errors, "env": env,
         "unscaled_host_figures": unscaled, **result}, indent=2) + "\n")

    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{sum(rounds.values())} rounds, {result['attempted']} operations attempted, "
          f"{result['failed']} failed, outputs {'correct' if not errors else 'WRONG'}")
    if args.trace:
        print("self time per layer and round:")
        for layer in LAYERS:
            print(f"  {layer:<10} {metrics[f'self_s.{layer}']:.4f} s")
    for k in units:
        print(f"  {k:<28} {metrics[k]:.6g} {units[k]}")
    if unscaled and not args.trace:
        print("unscaled host figures: " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
    print(f"env {json.dumps(env)}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, so peak_rss_mb belongs to it."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "irtime" / "__init__.py",
              ROOT / "samples"]
    missing = [str(n.relative_to(ROOT)) for n in needed if not n.exists()]
    if missing:
        print(f"error: not an irtime checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
