"""fairspect benchmark: one workload, timed end to end, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload train-8k --seed 1 --seconds 20 --trace 0

Inputs are generated from ``--seed`` by ``perfbench/gen.py`` and cached under
``.perfbench_cache/``; generation is never timed. A worker process drives
``fairspect.cli.main`` in-process as a closed loop, one command at a time, for
``--seconds`` (and at least twice, so same-seed repeats can be compared). With
``--trace 1`` the first command runs untraced and every later one traced, and
the per-layer metrics are medians over the traced commands.

Human-readable lines go first; the last line of standard output is the JSON
result: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
sys.path.insert(0, str(HERE))

from gen import GraphSpec, cached_inputs  # noqa: E402
from tracing import self_times  # noqa: E402

BLAS_THREADS = 1
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 150
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@dataclass(frozen=True)
class Workload:
    command: str
    args: tuple[str, ...]
    graph: GraphSpec | None
    work_unit: str
    # work done by one command, in work_unit
    work: int
    uses_mask: bool = False


WORKLOADS = {
    "train-100k": Workload(
        "train", ("--m", "4", "--hidden", "32", "--epochs", "20", "--seed", "0"),
        GraphSpec(n=100_000, mask_rate=0.3), "nodes", 100_000, uses_mask=True),
    "train-8k": Workload(
        "train", ("--missing_rate", "0.3", "--seed", "0"),
        GraphSpec(n=8_000, blocks=8), "epochs", 300),
    "sweep-10k": Workload(
        "sweep", ("--missing_rates", "0.1,0.3,0.5", "--seeds", "0,1", "--m", "16",
                  "--hidden", "32", "--epochs", "30"),
        GraphSpec(n=10_000, blocks=16), "cells", 6),
    # runnable by hand but not listed in BENCHMARK.json: verify exits 3 on some
    # battery seeds (README, Known limits), so a seeded run is not always correct
    "verify-battery": Workload(
        "verify", ("--suite_size", "150", "--k_max", "60", "--multiplicity_count", "30"),
        None, "graphs", 150),
}

WARMUP_GRAPH = GraphSpec(n=300, mask_rate=0.3)
WARMUP_ARGS = {
    "train": ("--m", "4", "--hidden", "8", "--d_m", "4", "--epochs", "3", "--seed", "0"),
    "sweep": ("--missing_rates", "0.3", "--seeds", "0", "--m", "4", "--hidden", "8",
              "--d_m", "4", "--epochs", "3"),
    "verify": ("--suite_size", "2", "--k_max", "10", "--multiplicity_count", "1"),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "throughput": "1/s"}


def blas_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


def command_argv(workload: Workload, inputs: Path | None, seed: int,
                 args: tuple[str, ...]) -> list[str]:
    argv = [workload.command]
    if inputs is not None:
        argv += ["--edges", str(inputs / "edges.txt"), "--attributes", str(inputs / "attrs.csv")]
        if workload.uses_mask:
            argv += ["--mask", str(inputs / "mask.txt")]
    else:
        argv += ["--seed", str(seed)]
    return argv + list(args) + ["--out_dir", "{out}"]


def measure_setup(env: dict) -> list[float]:
    """Fresh-interpreter import times of fairspect.cli (first one discarded)."""
    code = ("import time; t = time.perf_counter(); import fairspect.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples[1:]


def run_worker(job: dict, env: dict, work: Path) -> dict:
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_path)],
                            env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    result_path = Path(job["result_path"])
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"worker exited {proc.returncode}: {stderr[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- accounting

def op_cells(workload: Workload, op: dict) -> tuple[int, int]:
    """(attempted, failed) operations in one command run.

    An operation is the command, or one cell for ``sweep``. Sweep cells are
    counted by the reports written, because the command stops at the first
    failing cell. A nonzero exit or a missing report counts as failed.
    """
    out = Path(op["out"])
    if workload.command == "sweep":
        written = len(list(out.glob("report_r*_s*.json"))) if out.is_dir() else 0
        cells = workload.work
        ok = written if op["code"] == 0 else min(written, cells - 1)
        return cells, cells - ok
    report = {"train": "report.json", "verify": "verify_summary.json"}[workload.command]
    return 1, 0 if op["code"] == 0 and (out / report).exists() else 1


def account(workload: Workload, ops: list[dict]) -> tuple[int, int]:
    attempted = failed = 0
    for op in ops:
        a, f = op_cells(workload, op)
        attempted += a
        failed += f
    return attempted, failed


# ---------------------------------------------------------------- gates

RUNTIME_LINE = re.compile(r'^\s*"runtime_s": .*$', re.MULTILINE)


def same_outputs(a: Path, b: Path) -> list[str]:
    """Differences between two output directories.

    JSON files must be byte-identical apart from ``runtime_s``; checkpoints
    must hold bit-identical arrays (the zip container stamps the write time);
    everything else must be byte-identical.
    """
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return [f"file sets differ: {names_a} vs {names_b}"]
    problems = []
    for name in names_a:
        pa, pb = a / name, b / name
        if name.endswith(".npz"):
            with np.load(pa) as za, np.load(pb) as zb:
                if sorted(za.files) != sorted(zb.files) or any(
                        za[k].dtype != zb[k].dtype or za[k].shape != zb[k].shape
                        or za[k].tobytes() != zb[k].tobytes() for k in za.files):
                    problems.append(f"{name} arrays differ")
        elif name.endswith(".json"):
            ta = RUNTIME_LINE.sub("", pa.read_text(encoding="utf-8"))
            tb = RUNTIME_LINE.sub("", pb.read_text(encoding="utf-8"))
            if ta != tb:
                problems.append(f"{name} differs")
        elif pa.read_bytes() != pb.read_bytes():
            problems.append(f"{name} differs")
    return problems


def adjacency(inputs: Path):
    from scipy.sparse import csr_matrix

    meta = json.loads((inputs / "meta.json").read_text(encoding="utf-8"))
    n = meta["n"]
    edges = np.load(inputs / "edges.npy")
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    return csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))


def check_truncations(inputs: Path, npz: Path) -> tuple[list[str], dict]:
    """Residuals on a scipy-built adjacency and eigenvalues against eigsh."""
    from scipy.sparse.linalg import eigsh

    A = adjacency(inputs)
    problems = []
    stats = {"max_residual": 0.0, "gap_ratio": 0.0}
    with np.load(npz) as z:
        count = len([k for k in z.files if k.startswith("values_")])
        truncs = [(z[f"values_{i}"], z[f"vectors_{i}"]) for i in range(count)]
    reference = {}
    for values, vectors in truncs:
        m = len(values)
        scale = max(1.0, abs(float(values[0])))
        residual = float(np.linalg.norm(A @ vectors - vectors * values, axis=0).max())
        stats["max_residual"] = max(stats["max_residual"], residual)
        if m >= 2:
            stats["gap_ratio"] = abs(float(values[1]) / float(values[0]))
        if residual > 1e-9 * scale:
            problems.append(f"eigenpair residual {residual:.3e} above {1e-9 * scale:.1e}")
        if np.abs(vectors.T @ vectors - np.eye(m)).max() > 1e-8:
            problems.append("eigenvectors are not orthonormal")
        if m not in reference:
            ref = eigsh(A, k=m, which="LM", v0=np.ones(A.shape[0]),
                        return_eigenvectors=False)
            reference[m] = np.sort(ref)
        gap = np.abs(np.sort(values) - reference[m]).max()
        if gap > 1e-8 * scale:
            problems.append(f"eigenvalues differ from eigsh by {gap:.3e}")
    return problems, stats


def majority_rate(labels: np.ndarray, seed: int) -> float:
    from fairspect.graph import make_split

    test = labels[make_split(len(labels), None, seed).test]
    return float(np.bincount(test, minlength=2).max() / len(test))


def reports_of(workload: Workload, out: Path) -> list[dict]:
    if workload.command == "train":
        paths = [out / "report.json"]
    elif workload.command == "sweep":
        paths = sorted(out.glob("report_r*_s*.json"))
    else:
        return []
    return [json.loads(p.read_text(encoding="utf-8")) for p in paths if p.exists()]


def gates(workload: Workload, inputs: Path | None, result: dict, work: Path) -> dict:
    """Named gate -> list of problems (empty when the gate passes)."""
    ops = result["ops"]
    out = {"exit_0": [f"op{i}: exit {op['code']}: {op['stderr'].strip()[-300:]}"
                      for i, op in enumerate(ops) if op["code"] != 0]}
    first = Path(ops[0]["out"])
    # with tracing, every later operation is traced: this is the traced-vs-untraced check
    same = "traced_identical" if result["traces"] else "repeat_identical"
    out[same] = []
    for op in ops[1:]:
        if first.is_dir() and Path(op["out"]).is_dir():
            out[same] += same_outputs(first, Path(op["out"]))
    if workload.command == "verify":
        summary = first / "verify_summary.json"
        ok = summary.exists() and json.loads(summary.read_text(encoding="utf-8")).get("ok")
        out["verify_ok"] = [] if ok is True else ["verify_summary.json lacks ok: true"]
        return out
    labels = np.load(inputs / "labels.npy")
    reports = reports_of(workload, first)
    out["acc_above_majority"] = [
        f"acc {r['acc']:.4f} <= majority {majority_rate(labels, r['seed']):.4f}"
        for r in reports if r["acc"] <= majority_rate(labels, r["seed"])]
    if not reports:
        out["acc_above_majority"] = ["no report written"]
    npz = work / "truncations.npz"
    if npz.exists():
        out["eigenpairs"], result["eigen_stats"] = check_truncations(inputs, npz)
    else:
        out["eigenpairs"] = ["no truncation captured"]
    return out


# ---------------------------------------------------------------- metrics

def quality(workload: Workload, out: Path) -> dict:
    reports = reports_of(workload, out)
    if not reports:
        return {"acc": 0.0, "d_sp": 0.0, "d_eo": 0.0}
    return {key: statistics.fmean(r[key] for r in reports) for key in ("acc", "d_sp", "d_eo")}


def span_metrics(workload: Workload, trace: dict, wall_s: float, edge_count: int) -> dict:
    """Per-layer values of one traced operation."""
    spans = trace["spans"]
    selfs = self_times(spans)

    def dur(i):
        return spans[i]["end"] - spans[i]["start"]

    def under(i, name):
        parent = spans[i]["parent"]
        while parent is not None:
            if spans[parent]["name"] == name:
                return True
            parent = spans[parent]["parent"]
        return False

    def pick(name, where=lambda i: True):
        return [i for i, s in enumerate(spans) if s["name"] == name and where(i)]

    def total(name, where=lambda i: True):
        return float(sum(dur(i) for i in pick(name, where)))

    load_s = total("graph.load_edge_list")
    epochs = len(pick("autodiff.backward", lambda i: under(i, "model.train")))
    train_s = total("model.train")
    battery_gens = len(pick("synthetic.gen", lambda i: under(i, "limits.battery")))
    battery_size = workload.work if workload.command == "verify" else 0
    roots = [i for i, s in enumerate(spans) if s["parent"] is None]
    return {
        "graph.load_edge_list_s": load_s,
        "graph.load_attributes_s": total("graph.load_attributes"),
        "graph.edges_per_s": edge_count / load_s if load_s > 0 else 0.0,
        "graph.mask_s": total("graph.mask"),
        "graph.split_s": total("graph.split"),
        "graph.from_edges_s": total("graph.from_edges"),
        "graph.checks_s": total("graph.checks"),
        "spectral.top_m_s": total("spectral.top_m"),
        "spectral.top_m_calls": len(pick("spectral.top_m")),
        "spectral.matvecs": trace["counts"]["spectral.matvecs"],
        "spectral.failures": len(pick("spectral.top_m", lambda i: spans[i]["error"])),
        "spectral.dense_eigh_s": total("spectral.dense_eigh"),
        "spectral.dense_calls": len(pick("spectral.dense_eigh")),
        "encoding.zero_pad_s": total("encoding.zero_pad"),
        "encoding.pe_calls": len(pick("encoding.position_encoding")),
        "model.prepare_s": float(sum(selfs[i] for i in pick("model.prepare"))),
        "model.train_s": train_s,
        "model.epoch_s": train_s / epochs if epochs else 0.0,
        "model.forward_s": total("model.forward"),
        "model.forward_calls": len(pick("model.forward")),
        "model.val_predict_s": total("model.predict", lambda i: under(i, "model.train")),
        "model.adam_s": total("model.adam"),
        "model.predict_s": total("model.predict", lambda i: not under(i, "model.train")),
        "model.checkpoint_s": total("model.checkpoint"),
        "autodiff.backward_s": total("autodiff.backward"),
        "autodiff.backward_calls": len(pick("autodiff.backward")),
        "fairness.report_s": total("fairness.report"),
        "limits.battery_s": float(sum(selfs[i] for i in pick("limits.battery"))),
        "limits.battery_accept_ratio": battery_size / battery_gens if battery_gens else 0.0,
        "limits.limit_check_s": total("limits.limit_check"),
        "limits.limit_check_calls": len(pick("limits.limit_check")),
        "limits.decay_s": total("limits.decay"),
        "limits.multiplicity_s": (total("limits.multiplicity")
                                  + total("limits.multiplicity_battery")),
        "synthetic.gen_s": total("synthetic.gen"),
        "synthetic.gen_calls": len(pick("synthetic.gen")),
        "cli.self_s": wall_s - sum(dur(i) for i in roots),
        "trace.traced_wall_s": wall_s,
    }


def layer_metrics(workload: Workload, result: dict, inputs: Path | None) -> dict:
    """Medians over the traced operations, plus overhead, eigenpair and quality figures."""
    edge_count = 0
    if inputs is not None:
        edge_count = json.loads((inputs / "meta.json").read_text(encoding="utf-8"))["edge_count"]
    ops = result["ops"]
    per_op = [span_metrics(workload, trace, ops[trace["op"]]["wall_s"], edge_count)
              for trace in result["traces"]]
    values = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    eigen = result.get("eigen_stats", {"max_residual": 0.0, "gap_ratio": 0.0})
    attempted, failed = account(workload, ops)
    values.update({
        "spectral.max_residual": eigen["max_residual"],
        "spectral.gap_ratio": eigen["gap_ratio"],
        "trace.untraced_wall_s": ops[0]["wall_s"],
        "trace.overhead_s": values["trace.traced_wall_s"] - ops[0]["wall_s"],
        "quality.fail_frac": failed / attempted,
    })
    values.update({f"quality.{k}": v for k, v in quality(workload, Path(ops[0]["out"])).items()})
    return values


PER_LAYER_UNITS = {
    "_s": "s", "_calls": "count", ".matvecs": "count", ".failures": "count",
    ".edges_per_s": "1/s", ".max_residual": "norm", ".gap_ratio": "ratio",
    "_ratio": "ratio", ".pe_calls": "count", ".acc": "fraction", ".d_sp": "%",
    ".d_eo": "%", ".fail_frac": "fraction",
}


def per_layer_unit(name: str) -> str:
    for suffix in sorted(PER_LAYER_UNITS, key=len, reverse=True):
        if name.endswith(suffix):
            return PER_LAYER_UNITS[suffix]
    raise KeyError(name)


# ---------------------------------------------------------------- entry point

def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.exists() else ref
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "commit": commit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fairspect" / "cli.py").is_file():
        print(f"error: no fairspect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    env = blas_env()

    inputs = None
    if workload.graph is not None:
        inputs = cached_inputs(workload.graph, args.seed, CACHE, args.workload)
    warm_inputs = cached_inputs(WARMUP_GRAPH, 0, CACHE, "warmup")
    if workload.command == "verify":
        warm_inputs = None

    setup = measure_setup(env)
    work = CACHE / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job = {
        "src": str(SRC), "work_dir": str(work), "result_path": str(work / "result.json"),
        "run_id": f"{args.workload}-s{args.seed}",
        "argv": command_argv(workload, inputs, args.seed, workload.args),
        "warmup_argv": command_argv(workload, warm_inputs, 0, WARMUP_ARGS[workload.command]),
        "seconds": args.seconds, "min_ops": 2, "trace": bool(args.trace),
    }
    try:
        result = run_worker(job, env, work)
        # everything that reads the command outputs runs before they are removed
        checks = gates(workload, inputs, result, work)
        attempted, failed = account(workload, result["ops"])
        scores = quality(workload, Path(result["ops"][0]["out"]))
        layers = layer_metrics(workload, result, inputs) if args.trace else {}
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("environment: " + json.dumps(environment(), sort_keys=True))
    for name, problems in checks.items():
        print(f"gate {name}: {'PASS' if not problems else 'FAIL ' + '; '.join(problems)}")
    walls = [op["wall_s"] for op in result["ops"]]
    print(f"operations: {len(walls)} command runs, exit codes {[op['code'] for op in result['ops']]}, "
          f"walls {[round(w, 3) for w in walls]} s, "
          f"attempted {attempted}, failed {failed}")
    for key, value in scores.items():
        print(f"quality {key}: {value:.6f}")

    if args.trace:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in layers.items()}
    else:
        wall = statistics.median(walls)
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            # the first command's peak: a fresh process running one command, as
            # the CLI runs; later commands inherit the allocator's fragmentation
            "peak_rss_mb": result["ops"][0]["maxrss_kb"] / 1024.0,
            "throughput": workload.work / wall,
        }
        print(f"throughput unit on {args.workload}: {workload.work_unit}/s")
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    for name, entry in metrics.items():
        if not METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    correct = failed == 0 and not any(checks.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
