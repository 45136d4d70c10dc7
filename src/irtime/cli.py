"""Command line pipeline: simulate, features, train, predict, eval, gen-corpus.

Each subcommand is a thin wrapper over the library; all real behavior lives
in the importable modules so the CLI stays testable through main(argv).
Exit codes: 0 full success, 1 any failure (bad input, failed sample), 2
usage errors from argument parsing.
"""

import argparse
import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .config import PipelineConfig, config_from_file
from .corpus import GENERATOR_OPCODES, generate_corpus
from .errors import (
    EmptyDatasetError, EmptyInputError, IrTimeError, MissingLabelError,
    UnresolvedReferenceError,
)
from .interp import run
from .irparser import parse_file
from .metrics import evaluate
from .models import MODEL_KINDS, TRAINERS, load_model, save_model
from .trace import (
    Dataset, DatasetRow, extract_features, read_features, read_labels,
    read_trace, write_features, write_lines, write_trace,
)


def _load_config(args) -> PipelineConfig:
    """The `--config` file's config, or the default one, with those of
    `--seed`, `--max-steps` and `--workers` that the subcommand takes and
    was given applied through dataclasses.replace, so each is checked as
    the same value in a config file is."""
    cfg = config_from_file(args.config) if args.config else PipelineConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    if getattr(args, "max_steps", None) is not None:
        cfg = dataclasses.replace(
            cfg, limits=dataclasses.replace(cfg.limits, max_steps=args.max_steps))
    if getattr(args, "workers", None) is not None:
        cfg = dataclasses.replace(cfg, workers=args.workers)
    return cfg


def _collect_inputs(paths, suffix):
    found = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found.extend(sorted(p.glob(f"*{suffix}")))
        elif p.exists():
            found.append(p)
        else:
            raise FileNotFoundError(f"no such input: {p}")
    return found


# --- subcommands -------------------------------------------------------------


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    inputs = _collect_inputs(args.inputs, ".ll")
    if not inputs:
        print(f"error: no .ll inputs found in {' '.join(args.inputs)}", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def simulate_one(path: Path):
        try:
            module = parse_file(path)
            if not module.has_function("main"):
                raise UnresolvedReferenceError("main", "entry function")
            trace = run(module, entry="main", limits=cfg.limits, cache_config=cfg.cache)
            write_trace(trace, out_dir / (path.stem + ".trace"))
        except (IrTimeError, OSError) as exc:
            return exc
        return None

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            errors = list(pool.map(simulate_one, inputs))
    else:
        errors = [simulate_one(p) for p in inputs]

    failures = []
    for p, exc in zip(inputs, errors):
        if exc is None:
            print(f"wrote {out_dir / (p.stem + '.trace')}")
        else:
            failures.append(p)
            print(f"FAIL {p.stem}: {exc}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} of {len(inputs)} samples failed", file=sys.stderr)
        return 1
    return 0


def _cmd_features(args) -> int:
    traces = _collect_inputs(args.traces, ".trace")
    labels = None
    unit = None
    if args.labels:
        labels, unit = read_labels(args.labels)
    rows = []
    for tp in traces:
        trace = read_trace(tp)
        sample_id = tp.stem
        label = None
        if labels is not None:
            if sample_id not in labels:
                raise MissingLabelError(sample_id)
            label = labels[sample_id]
        rows.append(DatasetRow(sample_id, extract_features(trace), label))
    if not rows:
        print("warning: no trace files found, writing an empty matrix",
              file=sys.stderr)
    ds = Dataset(tuple(rows), unit=unit or "ns")
    write_features(ds, args.out)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    ds = read_features(args.features)
    try:
        model = TRAINERS[args.model](ds, cfg.hyper, cfg.master_seed)
    except EmptyDatasetError as exc:    # too few labeled rows
        raise EmptyDatasetError(f"{args.features}: {exc}") from None
    save_model(model, args.out)
    print(f"trained {model.kind} on {len(ds.labeled())} samples "
          f"(fingerprint {model.dataset_fingerprint}), wrote {args.out}")
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    ds = read_features(args.features)
    matrix = [row.features.values for row in ds.rows]
    predictions = model.predict(matrix) if matrix else []
    lines = [f"# unit: {ds.unit}"]
    for row, pred in zip(ds.rows, predictions):
        lines.append(f"{row.sample_id} {float(pred)!r}")
    write_lines(args.out, lines)
    print(f"wrote {args.out} ({len(ds.rows)} predictions)")
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    ds = read_features(args.features)
    try:
        report = evaluate(model, ds)
    except EmptyInputError as exc:      # a file without labels
        raise EmptyInputError(f"{args.features}: {exc}") from None
    print(report.table())
    if args.out:
        lines = [f"# unit: {ds.unit}", "sample_id,actual,predicted,ape,sape"]
        for s in report.scores:
            lines.append(
                f"{s.sample_id},{s.actual!r},{s.predicted!r},{s.ape!r},{s.sape!r}"
            )
        for g in sorted(report.group_ape):
            lines.append(f"# group {g} ape {report.group_ape[g]!r} "
                         f"sape {report.group_sape[g]!r}")
        lines.append(f"# overall ape {report.mean_ape!r} sape {report.mean_sape!r} "
                     f"mse {report.mse!r}")
        write_lines(args.out, lines)
        print(f"wrote {args.out}")
    return 0


def _counts(text: str):
    """The iteration counts of `--counts`: comma-separated parts, each N or
    START:STOP[:STEP] with STOP included."""
    counts = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        try:
            if len(fields) > 3:
                raise ValueError
            if len(fields) == 1:
                counts.append(int(part))
            else:
                step = int(fields[2]) if len(fields) == 3 and fields[2] else 1
                counts.extend(range(int(fields[0]), int(fields[1]) + 1, step))
        except ValueError:      # not an integer, a missing field, or step 0
            raise argparse.ArgumentTypeError(
                f"bad count {part!r}: want N or START:STOP[:STEP]") from None
    return counts


def _cmd_gen_corpus(args) -> int:
    cfg = _load_config(args)
    opcodes = []
    for chunk in args.opcode:
        opcodes.extend(o.strip() for o in chunk.split(",") if o.strip())
    if not opcodes or not args.counts:
        print("error: need at least one opcode and one count", file=sys.stderr)
        return 1
    paths = generate_corpus(opcodes, args.counts, cfg.master_seed, args.out)
    print(f"wrote {len(paths)} programs to {args.out}")
    return 0


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irtime",
        description="Simulate IR programs and train execution-time models.",
    )
    # each subcommand takes only the options it reads: simulate reads the
    # config but no seed, features neither, predict and eval only files
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="pipeline config JSON file")
    seeded = argparse.ArgumentParser(add_help=False, parents=[config])
    seeded.add_argument("--seed", type=int, default=None,
                        help="master seed (overrides config)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[config],
                       help="run .ll programs and write .trace files")
    p.add_argument("inputs", nargs="+", help=".ll files or directories")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("features", help="turn traces into a feature matrix")
    p.add_argument("traces", nargs="+", help=".trace files or directories")
    p.add_argument("--labels", help="two-column sample_id/time file")
    p.add_argument("--out", required=True, help="output .features CSV")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("train", parents=[seeded], help="fit a model")
    p.add_argument("--features", required=True, help="labeled feature CSV")
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--out", required=True, help="output model file")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict times for a feature matrix")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="output predictions file")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="score a model against labeled features")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", help="optional per-sample CSV report")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gen-corpus", parents=[seeded],
                       help="emit synthetic single-opcode loop programs")
    p.add_argument("--opcode", action="append", required=True,
                   help=f"target opcode (repeatable or comma separated); "
                        f"one of: {', '.join(GENERATOR_OPCODES)}")
    p.add_argument("--counts", required=True, type=_counts,
                   help="iteration counts: '100,200' or 'start:stop[:step]'")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen_corpus)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IrTimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
