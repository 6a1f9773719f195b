"""Runs one workload's commands in-process through ``fairspect.cli.main``.

Usage: python3 worker.py JOB.json

The job names the source tree, the command line (``{out}`` stands for the
operation's output directory), a warm-up command on a tiny input, how long to
keep the closed loop going and whether to trace. When tracing, the first
operation runs untraced and every later one traced. The worker writes a JSON
result next to the job: per-operation exit codes, wall times and the worker's
peak RSS so far, and the spans of each traced operation. Truncations returned by
``top_m_eigenpairs`` during the first operation are saved for the
independent eigenpair check.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def run_main(main, argv: list[str]) -> tuple[int | str, str]:
    """(exit code or exception name, captured stderr) of one CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is an operation failure, not a crash
            return type(exc).__name__, f"{err.getvalue()}{exc!r}"
    return (0 if code is None else code), err.getvalue()


class Capture:
    """Keeps the truncations ``prepare_inputs`` gets from the eigensolver while ``active``."""

    def __init__(self, model_module):
        self.active = False
        self.truncations = []
        original = model_module.top_m_eigenpairs

        def captured(*args, **kwargs):
            trunc = original(*args, **kwargs)
            if self.active:
                self.truncations.append(trunc)
            return trunc

        model_module.top_m_eigenpairs = captured


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    import numpy as np

    import fairspect.cli as cli
    import fairspect.model

    from tracing import Tracer

    capture = Capture(fairspect.model)
    work = Path(job["work_dir"])

    def operation(index: int, argv: list[str]) -> dict:
        out = work / f"op{index}"
        shutil.rmtree(out, ignore_errors=True)
        argv = [a.replace("{out}", str(out)) for a in argv]
        started = time.perf_counter()
        code, stderr = run_main(cli.main, argv)
        wall = time.perf_counter() - started
        return {"out": str(out), "code": code, "wall_s": wall, "stderr": stderr[-2000:],
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}

    operation(-1, job["warmup_argv"])
    ops, traces = [], []
    loop_start = time.perf_counter()
    while True:
        index = len(ops)
        capture.active = index == 0
        if job["trace"] and index > 0:
            tracer = Tracer(run_id=f"{job['run_id']}-op{index}")
            tracer.install()
            try:
                ops.append(operation(index, job["argv"]))
            finally:
                tracer.uninstall()
            traces.append({"op": index, **tracer.export()})
        else:
            ops.append(operation(index, job["argv"]))
        if len(ops) >= job["min_ops"] and time.perf_counter() - loop_start >= job["seconds"]:
            break

    if capture.truncations:
        arrays = {}
        for i, trunc in enumerate(capture.truncations):
            arrays[f"values_{i}"] = trunc.eigenvalues
            arrays[f"vectors_{i}"] = trunc.eigenvectors
        np.savez(work / "truncations.npz", **arrays)
    result = {"ops": ops, "traces": traces}
    Path(job["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
