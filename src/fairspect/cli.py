"""Command-line entry point: gen, mask, train, sweep, verify.

Configuration is a flat JSON file plus flags named exactly like the config
fields; an explicit flag always wins over the file, which wins over the
defaults. Exit codes: 0 success, 1 usage error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import functools
import io
import json
import os
import sys
import time
import typing
import warnings
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from .autodiff import HelperDiedError
from .encoding import DegenerateVectorError
from .fairness import build_report, check_scorable
from .graph import (
    SensitiveColumn,
    apply_missing_mask,
    load_attributes,
    load_edge_list,
    make_split,
    mask_file_text,
    parse_mask_file,
    to_edge_list_text,
)
from .limits import (
    VARIANTS,
    DegenerateAlignmentError,
    NotEstimableError,
    RepeatedDominantError,
    build_alignment_battery,
    build_multiplicity_battery,
    estimate_decay_rate,
    limit_check,
    multiplicity_bound_check,
)
from .model import (
    TrainConfig,
    TrainingDivergedError,
    predict,
    prepare_inputs,
    save_checkpoint,
    structural_truncation,
    train,
)
from .spectral import (
    DEFAULT_ORACLE_CAP,
    ConvergenceError,
    dense_eigendecomposition,
    top_m_eigenpairs,
)
from .synthetic import SyntheticSpec, attributes_to_csv_text, gen_synthetic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


class WorkerDiedError(RuntimeError):
    """A sweep worker process ended without a result, e.g. killed for memory."""


def _field_types() -> dict[str, tuple[type, bool]]:
    """TrainConfig field -> (int, float or bool; whether it admits None)."""
    hints = typing.get_type_hints(TrainConfig)
    table = {}
    for f in dataclass_fields(TrainConfig):
        args = typing.get_args(hints[f.name])  # () unless the hint is a union
        kind = next((t for t in args if t is not type(None)), hints[f.name])
        table[f.name] = (kind, type(None) in args)
    return table


_TRAIN_FIELD_TYPES = _field_types()
_SWITCHES = {name for name, (kind, _) in _TRAIN_FIELD_TYPES.items() if kind is bool}
_EXPECTED = {int: "an integer", float: "a number", bool: "true, false, 0 or 1"}
# config keys that are not TrainConfig fields -> type; each also takes null, and
# the two grids take a list or the comma-separated string their flags take
_RUN_KEY_TYPES = {"edges": str, "attributes": str, "mask": str, "dataset": str,
                  "out_dir": str, "missing_rates": float, "seeds": int}
_EXPECTED_RUN = {
    str: "a string or null",
    float: "a non-empty list of numbers, a comma-separated string or null",
    int: "a non-empty list of integers, a comma-separated string or null",
}


def _coerced(kind: type, value):
    """A JSON value as a field of ``kind`` holds it; TypeError if ``kind`` does not admit it.

    A bool is no number, a switch also takes 0 and 1, and a number field
    holds an integer as a float, the way its flag parses it.
    """
    if kind is bool:
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
    elif isinstance(value, bool):
        pass
    elif kind is float and isinstance(value, (int, float)):
        return float(value)
    elif isinstance(value, kind):
        return value
    raise TypeError(value)


def _config_value(name: str, value):
    """A config-file value, checked against its key's type and coerced like its flag."""
    train_field = name in _TRAIN_FIELD_TYPES
    if train_field:
        kind, nullable = _TRAIN_FIELD_TYPES[name]
        expected = _EXPECTED[kind] + (" or null" if nullable else "")
    else:
        kind, nullable = _RUN_KEY_TYPES[name], True
        expected = _EXPECTED_RUN[kind]
    try:
        if value is None and nullable:
            return None
        if train_field:
            return _coerced(kind, value)
        if isinstance(value, str):
            return value if kind is str else _grid(kind, value)
        if kind is not str and isinstance(value, list) and value:
            return [_coerced(kind, item) for item in value]
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float range
        pass
    raise ValueError(f"config key {name!r} must be {expected}, got {json.dumps(value)}")


class _Parser(argparse.ArgumentParser):
    # the CLI contract reserves exit code 2 for numerical failures
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _grid(kind: type, text: str) -> list:
    """A comma-separated string as a list of ``kind``; ValueError on a bad item or no items."""
    items = [kind(x) for x in text.split(",") if x.strip()]
    if not items:
        raise ValueError(text)
    return items


def _grid_flag(kind: type):
    """argparse ``type`` of a comma-separated flag: a bad value is an error naming the flag."""
    def parse(text: str) -> list:
        try:
            return _grid(kind, text)
        except ValueError:
            items = "integers" if kind is int else "numbers"
            raise argparse.ArgumentTypeError(f"expected comma-separated {items}, got {text!r}")
    return parse


def _at_least(kind: type, least=0):
    """argparse ``type`` of a count or tolerance: a value that does not parse,
    or is below ``least``, infinite or NaN, is an error naming the flag."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not least <= value < float("inf"):
            raise argparse.ArgumentTypeError(
                f"expected a finite {kind.__name__} of at least {least}, got {text!r}")
        return value
    return parse


def _variant_list(text: str) -> list[str]:
    """argparse ``type`` of ``--variants``: no name, or an unknown or repeated
    one, is an error."""
    variants = [v.strip() for v in text.split(",") if v.strip()]
    if not variants:
        raise argparse.ArgumentTypeError(f"names no variant; got {text!r}")
    for index, variant in enumerate(variants):
        if variant not in VARIANTS:
            raise argparse.ArgumentTypeError(
                f"unknown variant {variant!r}; expected names from {', '.join(VARIANTS)}")
        if variant in variants[:index]:
            raise argparse.ArgumentTypeError(f"lists {variant!r} twice")
    return variants


def _reject_repeated_cells(args, key: str, values: list, label):
    """A usage error if two values of the sweep grid ``key`` are equal or
    ``label`` prints them alike: their cells would share a report name."""
    for index, value in enumerate(values):
        for earlier in values[:index]:
            if earlier == value or label(earlier) == label(value):
                source = (f"--{key}" if getattr(args, key, None) is not None
                          else f"config key {key!r}")
                raise ValueError(f"{source} lists {earlier!r} and {value!r}: "
                                 "two sweep cells would share a report")


def _atomic_write_text(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _add_config_flags(parser: argparse.ArgumentParser, grids: bool):
    """One flag per config key: the run keys (the two grids only if ``grids``),
    then ``--config``, then the TrainConfig fields."""
    for name, kind in _RUN_KEY_TYPES.items():
        if kind is str or grids:
            parser.add_argument(f"--{name}", type=kind if kind is str else _grid_flag(kind),
                                default=None)
    parser.add_argument("--config", type=str, default=None,
                        help="flat JSON config file; flags override it")
    for name, (kind, _) in _TRAIN_FIELD_TYPES.items():
        if kind is bool:
            parser.add_argument(f"--{name}", type=int, choices=(0, 1), default=None)
        else:
            parser.add_argument(f"--{name}", type=kind, default=None)


def _merged_config(args) -> dict:
    merged: dict = {}
    if getattr(args, "config", None):
        loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a flat JSON object")
        unknown = set(loaded) - set(_TRAIN_FIELD_TYPES) - set(_RUN_KEY_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged = {name: _config_value(name, value) for name, value in loaded.items()}
    for name in [*_TRAIN_FIELD_TYPES, *_RUN_KEY_TYPES]:
        value = getattr(args, name, None)
        if value is not None:
            # a switch flag parses as the int 0 or 1; it is held as a bool, like a file's
            merged[name] = bool(value) if name in _SWITCHES else value
    return merged


def _train_config_from(merged: dict, **overrides) -> TrainConfig:
    kwargs = {k: v for k, v in merged.items() if k in _TRAIN_FIELD_TYPES}
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


# what every cell of a command shares: its inputs, with ``masked`` the mask
# file's column (None masks at each cell's rate), and each seed's split
_Run = collections.namedtuple("_Run", "graph attrs sensitive labels dataset masked splits")


def _prepared(merged: dict, configs: list[TrainConfig]):
    """The order ``train`` and ``sweep`` share before any cell trains, as
    (run, out_dir, trunc). The configs differ only in rate and seed, so the
    first one's ``train_size``, m and fusion switch serve every cell."""
    edges_path = merged.get("edges")
    attrs_path = merged.get("attributes")
    if not edges_path or not attrs_path:
        raise ValueError("both an edge-list file and an attribute CSV are required")
    graph = load_edge_list(Path(edges_path).read_text(encoding="utf-8"))
    attrs, sensitive, labels = load_attributes(
        Path(attrs_path).read_text(encoding="utf-8"), expected_n=graph.n)
    masked = (parse_mask_file(Path(merged["mask"]).read_text(encoding="utf-8"), sensitive)
              if merged.get("mask") else None)
    # a split depends only on the seed and train_size, so each seed's test rows
    # are checked once, before the solve
    splits = {}
    for seed in dict.fromkeys(config.seed for config in configs):
        split = splits[seed] = make_split(graph.n, configs[0].train_size, seed)
        check_scorable(labels[split.test], sensitive.values[split.test])
    out_dir = Path(merged.get("out_dir") or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    # every cell shares the graph, m and the fusion switch, so one solve serves them all
    trunc = structural_truncation(graph, configs[0])
    dataset = merged.get("dataset") or Path(attrs_path).stem
    return _Run(graph, attrs, sensitive, labels, dataset, masked, splits), out_dir, trunc


def _run_single_training(run: _Run, trunc, cpus: int, config: TrainConfig):
    """One cell of ``run``, trained on the truncation ``trunc``: (report, params).
    ``cpus`` is the cell's share of ``cpu_budget()``, which ``train`` may use."""
    started = time.perf_counter()
    if run.masked is None:
        sensitive = apply_missing_mask(run.sensitive, config.missing_rate, config.seed)
        report_rate = config.missing_rate
    else:
        sensitive = run.masked
        # no nominal rate when masking comes from a file; report the realised one
        report_rate = float((~sensitive.present).mean())
    split = run.splits[config.seed]
    data = prepare_inputs(run.graph, run.attrs, sensitive, run.labels, split, config, trunc)
    params, _history = train(data, config, cpus=cpus)
    test = split.test
    # the report scores the test nodes only, so only their rows are predicted
    yhat = predict(params, data.take(test), config)
    runtime = time.perf_counter() - started
    report = build_report(
        yhat, run.labels[test], run.sensitive.values[test],
        dataset=run.dataset, missing_rate=report_rate, seed=config.seed,
        config=config.as_dict(), runtime_s=runtime,
    )
    return report, params


def _sweep_cell(run: _Run, trunc, cpus: int, config: TrainConfig):
    """One grid cell's report, or the exception the cell failed with; its
    parameters stay in the process that trained them.

    Entering ``catch_warnings`` resets Python's once-per-location warning
    registry, so every cell prints its own warnings, such as a group without
    positives, even after an earlier cell in this process printed the same.
    """
    try:
        with warnings.catch_warnings():
            report, _params = _run_single_training(run, trunc, cpus, config)
    except Exception as exc:
        import traceback

        # the traceback keeps its lines but no longer holds the cell's inputs and model
        traceback.clear_frames(exc.__traceback__)
        return exc
    return report


# Set only inside pool workers, by the pool initializer. The cell function and
# the data it closes over reach the workers through fork, so only a cell's
# config goes out and its outcome comes back.
_worker_cell = None


def _adopt_cell(run_cell):
    global _worker_cell
    _worker_cell = run_cell


def _run_adopted_cell(config: TrainConfig):
    outcome = _worker_cell(config)
    if isinstance(outcome, Exception):
        import traceback

        # pickling drops __traceback__; a note, which str() leaves out, carries
        # the worker's frames into the traceback the parent prints
        outcome.add_note("Traceback in the sweep worker (most recent call last):\n"
                         + "".join(traceback.format_tb(outcome.__traceback__)).rstrip())
    return outcome


def cpu_budget() -> int:
    """Processes one command may keep busy: CPUs // BLAS threads, at least 1.

    BLAS threads per process are the first of the BLAS thread variables that
    holds a positive integer. With none set, BLAS is taken to use every CPU,
    which leaves room for one process: more would oversubscribe the CPUs.
    ``train`` gets the whole budget; ``sweep`` divides it among its workers.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    blas = cpus
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdecimal() and int(value) > 0:
            blas = int(value)
            break
    return max(1, cpus // blas)


def sweep_worker_count(cells: int) -> int:
    """Processes for a sweep of ``cells`` cells: min(cells, ``cpu_budget()``)."""
    return max(1, min(cells, cpu_budget()))


@contextlib.contextmanager
def _cell_outcomes(run_cell, configs: list, workers: int):
    """Yield ``run_cell``'s outcomes over ``configs`` in grid order, from ``workers`` processes."""
    if workers == 1:
        yield map(run_cell, configs)
        return
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    # a forked worker flushes the stdio buffers it inherited when it exits
    sys.stdout.flush()
    sys.stderr.flush()
    pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"),
                               initializer=_adopt_cell, initargs=(run_cell,))
    try:
        yield pool.map(_run_adopted_cell, configs)
    except BrokenProcessPool as exc:
        raise WorkerDiedError(f"a sweep worker process died: {exc}") from None
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_gen(args) -> int:
    params = {name: getattr(args, name) for name in ("p", "block_sizes", "p_in", "p_out", "sizes")
              if getattr(args, name) is not None}
    spec = SyntheticSpec(
        kind=args.kind, n=args.n, params=params,
        sensitive_correlation=args.sensitive_correlation,
        label_flip=args.label_flip, noise_scale=args.noise_scale,
        sensitive_classes=args.sensitive_classes, seed=args.seed,
    )
    graph, attrs, sensitive, labels = gen_synthetic(spec)
    edges_path = Path(args.out_edges)
    attrs_path = Path(args.out_attributes)
    edges_path.parent.mkdir(parents=True, exist_ok=True)
    attrs_path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(edges_path, to_edge_list_text(graph))
    _atomic_write_text(attrs_path, attributes_to_csv_text(attrs, sensitive, labels))
    print(f"wrote {edges_path} ({graph.n} nodes, {graph.edge_count} edges) and {attrs_path}")
    return EXIT_OK


def cmd_mask(args) -> int:
    _, sensitive, _ = load_attributes(Path(args.attributes).read_text(encoding="utf-8"))
    masked = apply_missing_mask(sensitive, args.rate, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(out, mask_file_text(masked))
    print(f"wrote {out} ({int((~masked.present).sum())} masked of {masked.n})")
    return EXIT_OK


def cmd_train(args) -> int:
    merged = _merged_config(args)
    config = _train_config_from(merged)
    run, out_dir, trunc = _prepared(merged, [config])
    report, params = _run_single_training(run, trunc, cpu_budget(), config)
    report_path = out_dir / "report.json"
    _atomic_write_text(report_path, _json_text(report.to_json_dict()))
    ckpt_path = out_dir / "checkpoint.npz"
    tmp = ckpt_path.with_name(ckpt_path.name + ".tmp")
    with open(tmp, "wb") as handle:
        save_checkpoint(handle, params, config)
    os.replace(tmp, ckpt_path)
    print(f"acc={report.accuracy:.4f} d_sp={report.delta_sp:.4f}% "
          f"d_eo={report.delta_eo:.4f}% -> {report_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    merged = _merged_config(args)
    if merged.get("mask"):
        raise ValueError("sweep masks by rate; a fixed mask file conflicts with the grid")
    rates = merged.get("missing_rates") or [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    seeds = merged.get("seeds") or [0]
    grid = [(rate, seed) for rate in rates for seed in seeds]
    configs = [_train_config_from(merged, missing_rate=rate, seed=seed) for rate, seed in grid]
    # a report is named by the rate as printed under :g and the seed
    _reject_repeated_cells(args, "missing_rates", rates, lambda rate: f"{rate:g}")
    _reject_repeated_cells(args, "seeds", seeds, str)
    run, out_dir, trunc = _prepared(merged, configs)
    workers = sweep_worker_count(len(configs))
    run_cell = functools.partial(_sweep_cell, run, trunc, cpu_budget() // workers)
    by_rate: dict[float, list] = {rate: [] for rate in rates}
    failures = []
    with _cell_outcomes(run_cell, configs, workers) as outcomes:
        for (rate, seed), report in zip(grid, outcomes):
            if isinstance(report, Exception):
                failures.append(report)
                print(f"rate={rate:g} seed={seed} failed: {report}")
                continue
            name = f"report_r{rate:g}_s{seed}.json"
            _atomic_write_text(out_dir / name, _json_text(report.to_json_dict()))
            by_rate[rate].append(report)
            print(f"rate={rate:g} seed={seed} acc={report.accuracy:.4f} "
                  f"d_sp={report.delta_sp:.4f}%")

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["missing_rate", "runs", "acc_mean", "acc_std",
                     "d_sp_mean", "d_sp_std", "d_eo_mean", "d_eo_std"])
    for rate in rates:
        row = [f"{rate:g}", len(by_rate[rate])]
        for field in ("accuracy", "delta_sp", "delta_eo"):
            values = np.array([getattr(report, field) for report in by_rate[rate]])
            row += [f"{values.mean():.6f}", f"{values.std():.6f}"] if values.size else ["", ""]
        writer.writerow(row)
    _atomic_write_text(out_dir / "aggregate.csv", buffer.getvalue())
    print(f"wrote {out_dir / 'aggregate.csv'} ({len(rates)} rates x {len(seeds)} seeds)")
    if failures:
        # the first failure in grid order decides the error and the exit code
        raise failures[0]
    return EXIT_OK


def _verify_battery(args):
    """Graphs to verify: an explicit file, or the seeded synthetic battery."""
    for flag, needed in (("attributes", "edges"), ("mask", "attributes")):
        if getattr(args, flag) and not getattr(args, needed):
            raise ValueError(f"verify reads --{flag} only with --{needed}")
    if not args.edges and args.suite_size < 1:
        raise ValueError("verify needs --suite_size of at least 1 without --edges")
    if args.edges:
        graph = load_edge_list(Path(args.edges).read_text(encoding="utf-8"))
        if args.attributes:
            _, sensitive, _ = load_attributes(
                Path(args.attributes).read_text(encoding="utf-8"), expected_n=graph.n)
            if args.mask:
                sensitive = parse_mask_file(
                    Path(args.mask).read_text(encoding="utf-8"), sensitive)
        else:
            rng = np.random.default_rng(args.seed)
            values = (rng.random(graph.n) < 0.5).astype(np.int64)
            if values.sum() == 0:
                values[0] = 1
            sensitive = SensitiveColumn(values=values,
                                        present=np.ones(graph.n, dtype=bool))
        # one solve per graph serves every variant and the decay check, which
        # read its top two pairs: the dense oracle up to its cap, ARPACK above
        oracle = (dense_eigendecomposition(graph) if graph.n <= DEFAULT_ORACLE_CAP
                  else top_m_eigenpairs(graph, 2))
        return [(Path(args.edges).stem, graph, sensitive, oracle)]
    return build_alignment_battery(args.suite_size, seed=args.seed)


def _tally(verdicts: list, counted: str, uncounted: str, **extra) -> dict:
    """Counts of ``verdicts``: True passed, False failed, None neither (named
    ``uncounted``); then ``extra``, and whether none failed."""
    failed = verdicts.count(False)
    return {counted: len(verdicts) - verdicts.count(None), "passed": verdicts.count(True),
            "failed": failed, uncounted: verdicts.count(None), **extra, "pass": failed == 0}


def cmd_verify(args) -> int:
    battery = _verify_battery(args)
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    # one series per (variant, graph), None outside the variant's premises;
    # thm1 also feeds the decay check
    table = {}
    for variant in dict.fromkeys([*args.variants, "thm1"]):
        for index, (_, graph, sensitive, oracle) in enumerate(battery):
            try:
                table[variant, index] = limit_check(variant, graph, sensitive,
                                                    k_max=args.k_max, trunc=oracle)
            except (RepeatedDominantError, DegenerateAlignmentError,
                    DegenerateVectorError):
                table[variant, index] = None

    rows = []
    summary: dict = {}
    for variant in args.variants:
        # a graph outside the premises, or whose series oscillates, is skipped
        verdicts, residuals, gaps = [], [0.0], [0.0]
        for index, (graph_id, graph, _, _) in enumerate(battery):
            series = table[variant, index]
            if series is not None:
                rows.extend([variant, graph_id, graph.n, int(k), f"{cos_k:.12e}",
                             f"{series.limit:.12e}", f"{residual:.12e}"]
                            for k, cos_k, residual in zip(series.hops, series.cosines,
                                                          series.residuals))
            if series is None or series.oscillating:
                verdicts.append(None)
                continue
            residuals.append(float(series.residuals[-1]))
            measured = residuals[-1]
            if variant == "thm3":  # judged by its companion gap
                gaps.append(float(series.companion_gap[-1]))
                measured = gaps[-1]
            verdicts.append(measured <= args.tol)
        extra = {"max_gap": max(gaps)} if variant == "thm3" else {}
        summary[variant] = _tally(verdicts, "graphs", "skipped",
                                  max_residual=max(residuals), **extra)

    decay = []
    for index, (_, _, _, oracle) in enumerate(battery):
        series, verdict = table["thm1", index], None
        if series is not None:
            with contextlib.suppress(NotEstimableError):
                empirical, predicted = estimate_decay_rate(series, oracle)
                verdict = abs(empirical - abs(predicted)) <= args.decay_tolerance * abs(predicted)
        decay.append(verdict)
    summary["decay"] = _tally(decay, "checked", "skipped")

    if args.multiplicity_count > 0:
        # a degenerate graph's bound holds neither way: None
        holds = [multiplicity_bound_check(graph, sensitive, k_max=args.k_max).holds
                 for _, graph, sensitive in build_multiplicity_battery(
                     args.multiplicity_count, seed=args.seed)]
        summary["multiplicity"] = _tally(holds, "checked", "degenerate")

    ok = all(entry["pass"] for entry in summary.values())
    summary["ok"] = ok

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["variant", "graph_id", "n", "k", "cos_k", "limit", "residual"])
    writer.writerows(rows)
    _atomic_write_text(out_dir / "verify_series.csv", buffer.getvalue())
    _atomic_write_text(out_dir / "verify_summary.json", _json_text(summary))

    for name, entry in summary.items():
        if isinstance(entry, dict):
            print(f"{name}: {'PASS' if entry['pass'] else 'FAIL'} {entry}")
    print(f"overall: {'PASS' if ok else 'FAIL'} -> {out_dir / 'verify_summary.json'}")
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fairspect",
                     description="fairness-aware spectral graph encoding pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a synthetic edge list + attribute CSV")
    # the custom kind needs an explicit edge list and only makes sense in
    # library code, so the command exposes the generative kinds
    gen.add_argument("--kind", required=True,
                     choices=("erdos_renyi", "sbm", "disjoint_cliques"))
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=float, default=None)
    gen.add_argument("--block_sizes", type=_grid_flag(int), default=None)
    gen.add_argument("--p_in", type=float, default=None)
    gen.add_argument("--p_out", type=float, default=None)
    gen.add_argument("--sizes", type=_grid_flag(int), default=None)
    gen.add_argument("--sensitive_correlation", type=float, default=1.0)
    gen.add_argument("--label_flip", type=float, default=0.0)
    gen.add_argument("--noise_scale", type=float, default=0.1)
    gen.add_argument("--sensitive_classes", type=int, default=2)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out_edges", required=True)
    gen.add_argument("--out_attributes", required=True)
    gen.set_defaults(func=cmd_gen)

    mask = sub.add_parser("mask", help="write a missing-node mask file")
    mask.add_argument("--attributes", required=True)
    mask.add_argument("--rate", type=float, required=True)
    mask.add_argument("--seed", type=int, default=0)
    mask.add_argument("--out", required=True)
    mask.set_defaults(func=cmd_mask)

    tr = sub.add_parser("train", help="train once, write report + checkpoint")
    _add_config_flags(tr, grids=False)
    tr.set_defaults(func=cmd_train)

    sw = sub.add_parser("sweep", help="rate x seed grid of runs + aggregate CSV")
    _add_config_flags(sw, grids=True)
    sw.set_defaults(func=cmd_sweep)

    ver = sub.add_parser("verify", help="run the alignment-limit checks")
    ver.add_argument("--edges", type=str, default=None)
    ver.add_argument("--attributes", type=str, default=None)
    ver.add_argument("--mask", type=str, default=None)
    ver.add_argument("--variants", type=_variant_list, default=",".join(VARIANTS))
    ver.add_argument("--k_max", type=_at_least(int, 1), default=40)
    ver.add_argument("--tol", type=_at_least(float), default=1e-6)
    ver.add_argument("--decay_tolerance", type=_at_least(float), default=0.10)
    ver.add_argument("--suite_size", type=_at_least(int), default=20)
    ver.add_argument("--multiplicity_count", type=_at_least(int), default=10)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out_dir", type=str, default=None)
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConvergenceError, TrainingDivergedError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # the input parsers' errors and json.JSONDecodeError are ValueErrors
    except (ValueError, OSError, WorkerDiedError, HelperDiedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # an input whose declared size does not fit in memory is a usage error
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
