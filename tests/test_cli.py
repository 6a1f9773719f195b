import argparse
import csv
import hashlib
import json
import multiprocessing
import os
import pickle
import re
import signal
import traceback
import warnings
from collections import Counter

import numpy as np
import pytest

import fairspect.autodiff
import fairspect.cli
import fairspect.limits
import fairspect.model
from fairspect.cli import main, sweep_worker_count
from fairspect.encoding import DegenerateVectorError
from fairspect.fairness import UndefinedMetricError
from fairspect.graph import (AttributeTableError, EdgeListFormatError, load_attributes,
                             load_edge_list)
from fairspect.model import TrainingDivergedError
from fairspect.spectral import ConvergenceError

from conftest import array_digest

K3_EDGES = "# n=3\n0 1\n0 2\n1 2\n"
K3_ATTRS = "id,f0,sensitive,label\n0,0.5,1,0\n1,0.1,0,1\n2,0.9,1,1\n"


def write_k3(tmp_path):
    edges = tmp_path / "k3.edges"
    attrs = tmp_path / "k3.csv"
    edges.write_text(K3_EDGES)
    attrs.write_text(K3_ATTRS)
    return edges, attrs


def gen_dataset(tmp_path, n=48, seed=0):
    edges = tmp_path / "g.edges"
    attrs = tmp_path / "g.csv"
    code = main([
        "gen", "--kind", "sbm", "--n", str(n),
        "--block_sizes", f"{n // 2},{n // 2}", "--p_in", "0.5", "--p_out", "0.08",
        "--label_flip", "0.3", "--seed", str(seed),
        "--out_edges", str(edges), "--out_attributes", str(attrs),
    ])
    assert code == 0
    return edges, attrs


def without_runtime(path):
    return re.sub(r'"runtime_s": [^,\n]+', '"runtime_s": 0', path.read_text())


def poisoned_prepare(on_start):
    """``prepare_inputs`` that calls ``on_start(config)``, then builds the inputs
    of seed-1 cells from 1e308 attributes, so their training diverges at epoch 0."""
    prepare = fairspect.cli.prepare_inputs

    def poisoned(graph, attrs, *rest, **kwargs):
        config = rest[3]
        on_start(config)
        if config.seed == 1:  # overflow in Pᵀ H and in the matmuls
            attrs = type(attrs)(features=np.full_like(attrs.features, 1e308),
                                sensitive_index=attrs.sensitive_index)
        return prepare(graph, attrs, *rest, **kwargs)

    return poisoned


def raise_for(predicate, message):
    """An ``on_start`` for ``poisoned_prepare`` that raises a ValueError of
    ``message`` in the cells whose config meets ``predicate``."""
    def on_start(config):
        if predicate(config):
            raise ValueError(message)
    return on_start


# a sweep cell that trains in a few milliseconds on ``gen_dataset``'s graph
SMALL_RUN = ["--epochs", "10", "--m", "3", "--hidden", "8", "--d_m", "4"]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def use_cpus(monkeypatch, count, blas_threads=None):
    """Pretend the process may run on ``count`` CPUs with the given BLAS threading."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    if blas_threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)


@pytest.fixture(params=["one-worker", "pool"])
def sweep_workers(request, monkeypatch):
    """Run a sweep in-process, or in a pool of two forked workers on any host."""
    if request.param == "pool":
        use_cpus(monkeypatch, 2, blas_threads="1")
        return 2
    use_cpus(monkeypatch, 2)
    return 1


class TestGen:
    def test_writes_loadable_files(self, tmp_path):
        edges, attrs = gen_dataset(tmp_path)
        graph = load_edge_list(edges.read_text())
        table, sens, labels = load_attributes(attrs.read_text(), expected_n=graph.n)
        assert graph.n == 48
        assert sens.present.all()
        assert set(np.unique(labels)) <= {0, 1}
        assert table.sensitive_index == table.d - 1

    def test_gen_then_train_pipeline(self, tmp_path):
        edges, attrs = gen_dataset(tmp_path)
        out = tmp_path / "run"
        code = main([
            "train", "--edges", str(edges), "--attributes", str(attrs),
            "--out_dir", str(out), "--epochs", "30", "--m", "4", "--hidden", "8",
            "--d_m", "4", "--missing_rate", "0.2", "--seed", "1",
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"dataset", "missing_rate", "seed", "acc", "d_sp",
                               "d_eo", "group_rates", "config", "runtime_s"}
        assert (out / "checkpoint.npz").exists()

    @pytest.mark.parametrize("probabilities, flag", [
        # 1.5 would write the complete graph, -1 and nan an edgeless one
        (["--kind", "erdos_renyi", "--p", "1.5"], "p"),
        (["--kind", "sbm", "--block_sizes", "5,5", "--p_in", "-1"], "p_in"),
        (["--kind", "sbm", "--block_sizes", "5,5", "--p_out", "nan"], "p_out"),
    ])
    def test_probability_outside_unit_interval_is_usage_error(self, tmp_path, capsys,
                                                              probabilities, flag):
        edges, attrs = tmp_path / "g.edges", tmp_path / "g.csv"
        code = main(["gen", *probabilities, "--n", "10", "--out_edges", str(edges),
                     "--out_attributes", str(attrs)])
        assert code == 1
        assert f"{flag} must be a probability in [0, 1]" in capsys.readouterr().err
        assert not edges.exists() and not attrs.exists()


class TestMask:
    def test_mask_file_has_exact_count(self, tmp_path):
        edges, attrs = gen_dataset(tmp_path)
        mask = tmp_path / "mask.ids"
        code = main(["mask", "--attributes", str(attrs), "--rate", "0.25",
                     "--seed", "2", "--out", str(mask)])
        assert code == 0
        ids = [int(line) for line in mask.read_text().splitlines() if line.strip()]
        assert len(ids) == 12
        assert len(set(ids)) == 12

    def test_train_accepts_mask_file(self, tmp_path):
        edges, attrs = gen_dataset(tmp_path)
        mask = tmp_path / "mask.ids"
        main(["mask", "--attributes", str(attrs), "--rate", "0.25", "--seed", "2",
              "--out", str(mask)])
        out = tmp_path / "run"
        code = main([
            "train", "--edges", str(edges), "--attributes", str(attrs),
            "--mask", str(mask), "--out_dir", str(out),
            "--epochs", "15", "--m", "4", "--hidden", "8", "--d_m", "4",
        ])
        assert code == 0

    def test_bad_rate_is_usage_error(self, tmp_path):
        _, attrs = gen_dataset(tmp_path)
        code = main(["mask", "--attributes", str(attrs), "--rate", "1.5",
                     "--seed", "0", "--out", str(tmp_path / "m.ids")])
        assert code == 1


def test_eigensolve_runs_before_the_padded_copy(tmp_path, monkeypatch):
    # the n x d padded copy must not be resident at the solve's peak
    edges, attrs = gen_dataset(tmp_path)
    calls = []
    for name in ("top_m_eigenpairs", "zero_pad"):
        def recorded(*args, name=name, original=getattr(fairspect.model, name)):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(fairspect.model, name, recorded)
    assert main(["train", "--edges", str(edges), "--attributes", str(attrs),
                 "--out_dir", str(tmp_path / "run"), *SMALL_RUN]) == 0
    assert calls == ["top_m_eigenpairs", "zero_pad"]


class TestSweep:
    def test_grid_outputs(self, tmp_path, sweep_workers):
        assert sweep_worker_count(4) == sweep_workers
        edges, attrs = gen_dataset(tmp_path)
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--edges", str(edges), "--attributes", str(attrs),
            "--out_dir", str(out), "--missing_rates", "0.1,0.3",
            "--seeds", "0,1", "--epochs", "10", "--m", "3", "--hidden", "8",
            "--d_m", "4",
        ])
        assert code == 0
        reports = sorted(out.glob("report_r*.json"))
        assert len(reports) == 4
        with open(out / "aggregate.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2  # one row per rate
        assert [row["missing_rate"] for row in rows] == ["0.1", "0.3"]
        assert all(row["runs"] == "2" for row in rows)

    @pytest.mark.usefixtures("sweep_workers")
    def test_one_eigensolve_serves_every_cell(self, tmp_path, monkeypatch):
        edges, attrs = gen_dataset(tmp_path)
        calls = []
        solve = fairspect.model.top_m_eigenpairs

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(fairspect.model, "top_m_eigenpairs", counted)
        common = ["--edges", str(edges), "--attributes", str(attrs), "--epochs", "10",
                  "--m", "3", "--hidden", "8", "--d_m", "4"]
        out = tmp_path / "sweep"
        assert main(["sweep", *common, "--out_dir", str(out),
                     "--missing_rates", "0.1,0.3", "--seeds", "0,1"]) == 0
        assert len(calls) == 1

        for rate in ("0.1", "0.3"):
            for seed in ("0", "1"):
                single = tmp_path / f"train_{rate}_{seed}"
                assert main(["train", *common, "--out_dir", str(single),
                             "--missing_rate", rate, "--seed", seed]) == 0
                assert (without_runtime(out / f"report_r{rate}_s{seed}.json")
                        == without_runtime(single / "report.json"))

    def test_each_seed_is_split_and_checked_once(self, tmp_path, monkeypatch):
        # a split depends only on the seed, so the cells of a seed share theirs
        use_cpus(monkeypatch, 2)
        edges, attrs = gen_dataset(tmp_path)
        calls = Counter()
        for name in ("make_split", "check_scorable"):
            def spy(*args, name=name, original=getattr(fairspect.cli, name)):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(fairspect.cli, name, spy)
        common = ["--edges", str(edges), "--attributes", str(attrs), *SMALL_RUN]
        assert main(["sweep", *common, "--out_dir", str(tmp_path / "sweep"),
                     "--missing_rates", "0.1,0.3,0.5", "--seeds", "0,1"]) == 0
        assert calls == {"make_split": 2, "check_scorable": 2}
        calls.clear()
        assert main(["train", *common, "--out_dir", str(tmp_path / "train")]) == 0
        assert calls == {"make_split": 1, "check_scorable": 1}

    def test_sweep_rejects_fixed_mask_file(self, tmp_path):
        edges, attrs = gen_dataset(tmp_path)
        mask = tmp_path / "mask.ids"
        mask.write_text("0\n")
        code = main(["sweep", "--edges", str(edges), "--attributes", str(attrs),
                     "--mask", str(mask), "--out_dir", str(tmp_path / "sw")])
        assert code == 1

    @pytest.mark.parametrize("grid,shown", [
        (["--missing_rates", "0.3,0.30", "--seeds", "0,0"], "--missing_rates lists 0.3 and 0.3"),
        (["--missing_rates", "0.1,0.1000001"], "--missing_rates lists 0.1 and 0.1000001"),
        (["--missing_rates", "0.2", "--seeds", "1,2,1"], "--seeds lists 1 and 1"),
    ])
    def test_repeated_cell_is_usage_error_naming_the_flag(self, tmp_path, capsys, grid, shown):
        # 0.1 and 0.1000001 both print as 0.1 in a report name
        edges, attrs = write_k3(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--edges", str(edges), "--attributes", str(attrs),
                     "--out_dir", str(out), "--epochs", "2", *grid])
        assert code == 1
        assert f"error: {shown}: two sweep cells would share a report" in capsys.readouterr().err
        assert not out.exists()  # rejected before any cell trains

    @pytest.mark.parametrize("key,value,shown", [
        ("missing_rates", [0.3, 0.30], "0.3 and 0.3"),
        ("missing_rates", "0.1,0.1000001", "0.1 and 0.1000001"),
        ("seeds", [0, 0], "0 and 0"),
    ])
    def test_repeated_cell_is_usage_error_naming_the_config_key(self, tmp_path, capsys,
                                                                 key, value, shown):
        edges, attrs = write_k3(tmp_path)
        out = tmp_path / "sweep"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"edges": str(edges), "attributes": str(attrs),
                                      "out_dir": str(out), "epochs": 2, key: value}))
        assert main(["sweep", "--config", str(config)]) == 1
        assert (f"error: config key '{key}' lists {shown}: two sweep cells would share a report"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_second_cell_diverging_exits_2_like_train(self, tmp_path, capsys, monkeypatch,
                                                      sweep_workers):
        edges, attrs = gen_dataset(tmp_path)
        cells_ran_in = tmp_path / "pids"
        cells_ran_in.mkdir()
        monkeypatch.setattr(fairspect.cli, "prepare_inputs",
                            poisoned_prepare(lambda config: (cells_ran_in / str(os.getpid())).touch()))
        common = ["--edges", str(edges), "--attributes", str(attrs), *SMALL_RUN]
        out = tmp_path / "sweep"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["sweep", *common, "--out_dir", str(out),
                         "--missing_rates", "0.1,0.3", "--seeds", "0,1"])
            sweep_err = capsys.readouterr().err
            assert main(["train", *common, "--out_dir", str(tmp_path / "train"),
                         "--missing_rate", "0.1", "--seed", "1"]) == 2
            train_err = capsys.readouterr().err
        assert code == 2
        assert sweep_err == train_err
        assert sweep_err.startswith("numerical failure: training diverged at epoch 0")
        assert sorted(p.name for p in out.iterdir()) == [
            "aggregate.csv", "report_r0.1_s0.json", "report_r0.3_s0.json"]
        ran_in_workers = {int(p.name) for p in cells_ran_in.iterdir()} - {os.getpid()}
        assert bool(ran_in_workers) == (sweep_workers == 2)

    def test_every_cell_runs_after_a_failure(self, tmp_path, capsys, monkeypatch,
                                             sweep_workers):
        edges, attrs = gen_dataset(tmp_path)
        started = tmp_path / "started"
        started.mkdir()
        monkeypatch.setattr(fairspect.cli, "prepare_inputs", poisoned_prepare(
            lambda config: (started / f"{config.missing_rate:g}_{config.seed}").touch()))
        common = ["--edges", str(edges), "--attributes", str(attrs), *SMALL_RUN]
        rates = ("0.1", "0.3", "0.5")
        out = tmp_path / "sweep"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["sweep", *common, "--out_dir", str(out),
                         "--missing_rates", ",".join(rates), "--seeds", "1,0"])
        assert code == 2
        # the first cell fails at epoch 0; every later cell still trains
        assert {p.name for p in started.iterdir()} == {f"{r}_{s}" for r in rates for s in (0, 1)}
        assert sorted(p.name for p in out.glob("report_r*.json")) == [
            f"report_r{rate}_s0.json" for rate in rates]
        for rate in rates:
            single = tmp_path / f"train_{rate}"
            assert main(["train", *common, "--out_dir", str(single),
                         "--missing_rate", rate, "--seed", "0"]) == 0
            assert (without_runtime(out / f"report_r{rate}_s0.json")
                    == without_runtime(single / "report.json"))

    @pytest.mark.parametrize("seeds, code, err", [
        ("0,2,1", 1, "error: seed 2 is poisoned"),
        ("0,1,2", 2, "numerical failure: training diverged at epoch 0"),
    ])
    def test_first_failure_in_grid_order_decides_the_exit_code(
            self, tmp_path, capsys, monkeypatch, sweep_workers, seeds, code, err):
        edges, attrs = gen_dataset(tmp_path)
        monkeypatch.setattr(fairspect.cli, "prepare_inputs", poisoned_prepare(
            raise_for(lambda config: config.seed == 2, "seed 2 is poisoned")))
        out = tmp_path / "sweep"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["sweep", "--edges", str(edges), "--attributes", str(attrs),
                         *SMALL_RUN, "--out_dir", str(out), "--missing_rates", "0.1",
                         "--seeds", seeds]) == code
        assert capsys.readouterr().err.startswith(err)
        assert sorted(p.name for p in out.iterdir()) == ["aggregate.csv", "report_r0.1_s0.json"]
        with open(out / "aggregate.csv") as handle:
            assert [row["runs"] for row in csv.DictReader(handle)] == ["1"]

    def test_rate_whose_cells_all_fail_has_an_empty_row(self, tmp_path, capsys, monkeypatch,
                                                        sweep_workers):
        edges, attrs = gen_dataset(tmp_path)
        monkeypatch.setattr(fairspect.cli, "prepare_inputs", poisoned_prepare(
            raise_for(lambda config: config.missing_rate == 0.3, "rate 0.3")))
        out = tmp_path / "sweep"
        # the empty row's mean would warn "Mean of empty slice", which fails the suite
        assert main(["sweep", "--edges", str(edges), "--attributes", str(attrs), *SMALL_RUN,
                     "--out_dir", str(out), "--missing_rates", "0.1,0.3,0.5",
                     "--seeds", "0,2"]) == 1
        assert capsys.readouterr().err == "error: rate 0.3\n"
        with open(out / "aggregate.csv") as handle:
            rows = list(csv.reader(handle))
        assert [row[:2] for row in rows[1:]] == [["0.1", "2"], ["0.3", "0"], ["0.5", "2"]]
        assert rows[2] == ["0.3", "0", "", "", "", "", "", ""]
        assert all(cell != "" for row in (rows[1], rows[3]) for cell in row)

    def test_stdout_is_the_same_in_one_process_and_in_the_pool(self, tmp_path, capsys,
                                                               monkeypatch):
        edges, attrs = gen_dataset(tmp_path)
        monkeypatch.setattr(fairspect.cli, "prepare_inputs", poisoned_prepare(
            raise_for(lambda config: config.seed == 2, "seed 2 is poisoned")))
        capsys.readouterr()  # gen's line
        stdout = []
        for blas_threads, workers in ((None, 1), ("1", 2)):
            use_cpus(monkeypatch, 2, blas_threads)
            assert sweep_worker_count(6) == workers
            out = tmp_path / f"sweep{workers}"
            with np.errstate(over="ignore", invalid="ignore"):
                assert main(["sweep", "--edges", str(edges), "--attributes", str(attrs),
                             *SMALL_RUN, "--out_dir", str(out), "--missing_rates", "0.1,0.3",
                             "--seeds", "0,1,2"]) == 2
            stdout.append(capsys.readouterr().out.replace(str(out), "OUT"))
        assert stdout[0] == stdout[1]
        *cells, last = stdout[0].splitlines()
        # one line per cell in grid order, a failed cell's in its place
        assert [line.split(" acc=")[0] for line in cells[::3]] == [
            "rate=0.1 seed=0", "rate=0.3 seed=0"]
        assert cells[1::3] == [
            f"rate={rate} seed=1 failed: training diverged at epoch 0 (non-finite loss)"
            for rate in ("0.1", "0.3")]
        assert cells[2::3] == [f"rate={rate} seed=2 failed: seed 2 is poisoned"
                               for rate in ("0.1", "0.3")]
        assert last == "wrote OUT/aggregate.csv (2 rates x 3 seeds)"

    def test_programming_error_keeps_the_cell_frames(self, tmp_path, monkeypatch,
                                                     sweep_workers):
        # a pooled cell's exception comes back pickled, without its traceback;
        # the traceback printed for it must still reach the frame that raised
        edges, attrs = gen_dataset(tmp_path)

        def injected_type_error(config):
            if config.seed == 2:
                raise TypeError("unsupported operand")

        monkeypatch.setattr(fairspect.cli, "prepare_inputs", poisoned_prepare(injected_type_error))
        with pytest.raises(TypeError) as caught:
            main(["sweep", "--edges", str(edges), "--attributes", str(attrs), *SMALL_RUN,
                  "--out_dir", str(tmp_path / "sweep"), "--missing_rates", "0.1",
                  "--seeds", "0,2"])
        # the frames travel beside the message: an error line keeps its text
        assert str(caught.value) == "unsupported operand"
        assert "injected_type_error" in "".join(traceback.format_exception(caught.value))

    def test_failed_cell_holds_no_frame_locals(self, tmp_path, monkeypatch):
        # in one process a failed cell's exception lives until the sweep ends;
        # its frames must not keep the cell's inputs and model alive meanwhile
        use_cpus(monkeypatch, 2)
        edges, attrs = gen_dataset(tmp_path)
        monkeypatch.setattr(fairspect.cli, "prepare_inputs", poisoned_prepare(
            raise_for(lambda config: config.seed == 2, "seed 2 is poisoned")))
        outcomes = []
        cell = fairspect.cli._sweep_cell

        def recorded(*args):
            outcomes.append(cell(*args))
            return outcomes[-1]

        monkeypatch.setattr(fairspect.cli, "_sweep_cell", recorded)
        assert main(["sweep", "--edges", str(edges), "--attributes", str(attrs), *SMALL_RUN,
                     "--out_dir", str(tmp_path / "sweep"), "--missing_rates", "0.1",
                     "--seeds", "2,0"]) == 1
        failure = outcomes[0]
        frames = [frame for frame, _ in traceback.walk_tb(failure.__traceback__)]
        names = [frame.f_code.co_name for frame in frames]
        below = frames[names.index("_sweep_cell") + 1:]
        assert [frame.f_code.co_name for frame in below] == [
            "_run_single_training", "poisoned", "on_start"]
        assert all(frame.f_locals == {} for frame in below)

    def test_dead_worker_is_usage_error(self, tmp_path, capsys, monkeypatch):
        use_cpus(monkeypatch, 2, blas_threads="1")
        edges, attrs = gen_dataset(tmp_path)

        test_process = os.getpid()

        def killed(*args):
            if os.getpid() == test_process:
                raise AssertionError("the cell ran in the test process, not in a worker")
            os._exit(9)

        monkeypatch.setattr(fairspect.cli, "_run_single_training", killed)
        out = tmp_path / "sweep"
        code = main(["sweep", "--edges", str(edges), "--attributes", str(attrs),
                     "--out_dir", str(out), "--missing_rates", "0.1", "--seeds", "0,1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: a sweep worker process died")
        assert "Traceback" not in err
        assert list(out.iterdir()) == []


def gen_four_block_dataset(tmp_path):
    """3200 nodes: 1600 train rows, four row blocks of the loss at hidden 64, so
    the helper and the parent each run two."""
    edges = tmp_path / "big.edges"
    attrs = tmp_path / "big.csv"
    assert main(["gen", "--kind", "sbm", "--n", "3200", "--block_sizes", "1600,1600",
                 "--p_in", "0.01", "--p_out", "0.002", "--label_flip", "0.3", "--seed", "4",
                 "--out_edges", str(edges), "--out_attributes", str(attrs)]) == 0
    return edges, attrs


def record_helper_starts(monkeypatch, directory):
    """Touch a file in ``directory`` for each loss helper started, in any process."""
    directory.mkdir()

    class Recorded(fairspect.autodiff.LossHelper):
        def __init__(self, *args):
            super().__init__(*args)
            (directory / f"{os.getpid()}-{self._process.pid}").touch()

    monkeypatch.setattr(fairspect.autodiff, "LossHelper", Recorded)
    return directory


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTrainHelper:
    """With a second CPU in the budget, ``train`` forks a helper that runs
    about half of every loss's row blocks; nothing it does shows in the
    outputs."""

    TRAIN = ["--epochs", "8", "--m", "3", "--d_m", "4", "--missing_rate", "0.3"]

    @pytest.mark.parametrize("spectral_fusion", ["1", "0"])
    @pytest.mark.parametrize("layers", ["1", "2"])
    def test_outputs_identical_at_budgets_1_and_2(self, tmp_path, monkeypatch, layers,
                                                  spectral_fusion):
        edges, attrs = gen_four_block_dataset(tmp_path)
        started = record_helper_starts(monkeypatch, tmp_path / "helpers")
        outs = {}
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus, blas_threads="1")
            outs[cpus] = tmp_path / f"cpus{cpus}"
            assert main(["train", "--edges", str(edges), "--attributes", str(attrs),
                         *self.TRAIN, "--layers", layers, "--spectral_fusion", spectral_fusion,
                         "--out_dir", str(outs[cpus])]) == 0
            assert len(list(started.iterdir())) == cpus - 1
        assert (without_runtime(outs[1] / "report.json")
                == without_runtime(outs[2] / "report.json"))
        with np.load(outs[1] / "checkpoint.npz") as serial, \
                np.load(outs[2] / "checkpoint.npz") as helped:
            assert serial.files == helped.files
            for name in serial.files:
                assert serial[name].tobytes() == helped[name].tobytes(), name
        assert_no_child_left()

    def test_killed_helper_is_usage_error(self, tmp_path, capsys, monkeypatch):
        use_cpus(monkeypatch, 2, blas_threads="1")
        edges, attrs = gen_four_block_dataset(tmp_path)
        loss, steps = fairspect.model.loss, []

        def kill_after_first_step(*args):
            steps.append(1)
            if len(steps) == 2:
                helpers = multiprocessing.active_children()
                assert len(helpers) == 1
                os.kill(helpers[0].pid, signal.SIGKILL)
            return loss(*args)

        monkeypatch.setattr(fairspect.model, "loss", kill_after_first_step)
        out = tmp_path / "train"
        code = main(["train", "--edges", str(edges), "--attributes", str(attrs),
                     *self.TRAIN, "--out_dir", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: the loss helper process died (killed by signal 9)")
        assert "Traceback" not in err
        assert list(out.iterdir()) == []
        assert_no_child_left()

    def test_diverging_run_with_helper_exits_2(self, tmp_path, capsys, monkeypatch):
        use_cpus(monkeypatch, 2, blas_threads="1")
        edges, attrs = gen_four_block_dataset(tmp_path)
        started = record_helper_starts(monkeypatch, tmp_path / "helpers")
        monkeypatch.setattr(fairspect.cli, "prepare_inputs", poisoned_prepare(lambda config: None))
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--edges", str(edges), "--attributes", str(attrs),
                         *self.TRAIN, "--seed", "1", "--out_dir", str(tmp_path / "train")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "numerical failure: training diverged at epoch 0")
        assert len(list(started.iterdir())) == 1
        assert_no_child_left()

    def test_pooled_cells_start_no_helper(self, tmp_path, monkeypatch, sweep_workers):
        # 8 rows a block at hidden 8: each cell's 24 train rows are 3 blocks
        monkeypatch.setattr(fairspect.autodiff, "BLOCK_ELEMENTS", 64)
        edges, attrs = gen_dataset(tmp_path)
        started = record_helper_starts(monkeypatch, tmp_path / "helpers")
        common = ["--edges", str(edges), "--attributes", str(attrs), "--epochs", "5",
                  "--m", "3", "--hidden", "8", "--d_m", "4"]
        assert main(["sweep", *common, "--out_dir", str(tmp_path / "sweep"),
                     "--missing_rates", "0.1,0.3", "--seeds", "0,1"]) == 0
        assert list(started.iterdir()) == []
        # the same cell, trained alone with the two CPUs, starts one
        use_cpus(monkeypatch, 2, blas_threads="1")
        assert main(["train", *common, "--out_dir", str(tmp_path / "train")]) == 0
        assert len(list(started.iterdir())) == 1
        assert_no_child_left()

    def test_train_gets_the_budget_and_sweep_cells_a_share(self, tmp_path, monkeypatch):
        edges, attrs = gen_dataset(tmp_path)
        given = tmp_path / "given"
        given.mkdir()
        train = fairspect.cli.train

        def recorded(data, config, cpus):
            (given / f"{config.seed}-cpus{cpus}").touch()
            return train(data, config, cpus=cpus)

        monkeypatch.setattr(fairspect.cli, "train", recorded)
        common = ["--edges", str(edges), "--attributes", str(attrs), "--epochs", "2",
                  "--m", "3", "--hidden", "8", "--d_m", "4"]
        use_cpus(monkeypatch, 4, blas_threads="2")
        assert main(["train", *common, "--seed", "7", "--out_dir", str(tmp_path / "t")]) == 0
        # one cell has the whole budget; two cells split it between two workers
        assert main(["sweep", *common, "--missing_rates", "0.2", "--seeds", "8",
                     "--out_dir", str(tmp_path / "s1")]) == 0
        assert main(["sweep", *common, "--missing_rates", "0.2", "--seeds", "5,6",
                     "--out_dir", str(tmp_path / "s2")]) == 0
        assert sorted(p.name for p in given.iterdir()) == [
            "5-cpus1", "6-cpus1", "7-cpus2", "8-cpus2"]


class TestSweepWorkerCount:
    def test_unset_blas_threads_give_one_worker(self, monkeypatch):
        use_cpus(monkeypatch, 4)
        assert sweep_worker_count(6) == 1

    @pytest.mark.parametrize("value,workers", [
        ("1", 4), ("2", 2), ("3", 1), ("8", 1), ("0", 1), ("-2", 1), ("two", 1), ("", 1),
    ])
    def test_cpus_per_blas_threads(self, monkeypatch, value, workers):
        use_cpus(monkeypatch, 4, blas_threads=value)
        assert sweep_worker_count(6) == workers

    def test_first_variable_with_a_positive_integer_counts(self, monkeypatch):
        use_cpus(monkeypatch, 4, blas_threads="0")
        monkeypatch.setenv("MKL_NUM_THREADS", "many")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert sweep_worker_count(6) == 2

    def test_never_more_workers_than_cells(self, monkeypatch):
        use_cpus(monkeypatch, 4, blas_threads="1")
        assert [sweep_worker_count(cells) for cells in (0, 1, 3, 4, 5)] == [1, 1, 3, 4, 4]

    def test_cpu_count_where_affinity_is_unavailable(self, monkeypatch):
        use_cpus(monkeypatch, 4, blas_threads="2")
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert sweep_worker_count(6) == 3


@pytest.mark.parametrize("error", [
    TrainingDivergedError(5),
    ConvergenceError("2 of 4 eigenpairs above tolerance", np.array([3e-9, 1e-12])),
    EdgeListFormatError("line 3: expected two node ids"),
    AttributeTableError("row 2: non-finite feature"),
    DegenerateVectorError("zero-norm vector"),
    UndefinedMetricError("empty evaluation set"),
], ids=lambda error: type(error).__name__)
def test_errors_survive_pickling(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy).keys() == vars(error).keys()
    for name, value in vars(error).items():
        assert np.array_equal(getattr(copy, name), value)


class TestVerify:
    def test_triangle_anchor_passes(self, tmp_path):
        edges, attrs = write_k3(tmp_path)
        mask = tmp_path / "mask.ids"
        mask.write_text("2\n")
        out = tmp_path / "verify"
        code = main([
            "verify", "--edges", str(edges), "--attributes", str(attrs),
            "--mask", str(mask), "--k_max", "30", "--tol", "1e-8",
            "--multiplicity_count", "0", "--out_dir", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["ok"]
        assert summary["thm1"]["max_residual"] <= 1e-8
        assert summary["thm3"]["max_gap"] <= 1e-8
        with open(out / "verify_series.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert {row["variant"] for row in rows} == {"lemma1", "thm1", "thm2", "thm3"}
        assert len(rows) == 4 * 30
        assert {r["k"] for r in rows if r["variant"] == "thm1"} == {str(k) for k in range(1, 31)}

    def test_unreachable_tolerance_fails_with_exit_3(self, tmp_path):
        edges, attrs = write_k3(tmp_path)
        out = tmp_path / "verify"
        code = main([
            "verify", "--edges", str(edges), "--attributes", str(attrs),
            "--k_max", "10", "--tol", "1e-30", "--multiplicity_count", "0",
            "--out_dir", str(out),
        ])
        assert code == 3
        summary = json.loads((out / "verify_summary.json").read_text())
        assert not summary["ok"]

    def test_outputs_match_recorded_digests(self, tmp_path, monkeypatch, capsys):
        # recorded with numpy's OpenBLAS wheels on x86-64; at k_max 30 one
        # graph of six fails lemma1, thm1 and thm2, so every count is nonzero
        monkeypatch.chdir(tmp_path)
        code = main(["verify", "--suite_size", "6", "--k_max", "30",
                     "--multiplicity_count", "2", "--seed", "0", "--out_dir", "out"])
        assert code == 3
        digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                   for name in ("verify_summary.json", "verify_series.csv")}
        digests["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digests == {
            "verify_summary.json":
                "d25a57ee7665f98aa8a96c889f49b9a5d4059b0251c6c8358b0a7dae9f52a46e",
            "verify_series.csv":
                "a696b2e5dccc1ac285d81bd2e27c3a627a01c7965a471ccbe26e13550f4e461a",
            "stdout": "7019431ecf6d41c4936a8ef288580233a58ee9652e800950c984ec4772c8a7de",
        }

    def test_k_max_reaches_the_multiplicity_check(self, tmp_path, monkeypatch):
        hops = []
        check = fairspect.cli.multiplicity_bound_check

        def spy(graph, sensitive, **kwargs):
            hops.append(kwargs.get("k_max"))
            return check(graph, sensitive, **kwargs)

        monkeypatch.setattr(fairspect.cli, "multiplicity_bound_check", spy)
        edges, attrs = write_k3(tmp_path)
        main(["verify", "--edges", str(edges), "--attributes", str(attrs), "--k_max", "7",
              "--multiplicity_count", "2", "--out_dir", str(tmp_path / "verify")])
        assert hops == [7, 7]

    def test_synthetic_battery_smoke(self, tmp_path):
        out = tmp_path / "verify"
        code = main(["verify", "--suite_size", "3", "--k_max", "40",
                     "--multiplicity_count", "3", "--out_dir", str(out)])
        assert code == 0
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["ok"]
        assert summary["multiplicity"]["checked"] == 3

    @pytest.mark.parametrize("variants", ["lemma1,thm1,thm2,thm3", "lemma1,thm3"])
    def test_each_series_is_computed_once_per_graph(self, tmp_path, monkeypatch, variants):
        """The decay check reads the thm1 series the variant loop built, and
        builds it itself only when thm1 is not among the variants."""
        calls = []
        check = fairspect.cli.limit_check

        def counted(variant, *args, **kwargs):
            calls.append(variant)
            return check(variant, *args, **kwargs)

        monkeypatch.setattr(fairspect.cli, "limit_check", counted)
        out = tmp_path / "verify"
        assert main(["verify", "--suite_size", "3", "--k_max", "40", "--variants", variants,
                     "--multiplicity_count", "0", "--out_dir", str(out)]) == 0
        summary = json.loads((out / "verify_summary.json").read_text())
        # three graphs, each checked once per variant, and by thm1 for the decay
        assert Counter(calls) == {variant: 3 for variant in {*variants.split(","), "thm1"}}
        assert summary["decay"] == {"checked": 3, "passed": 3, "failed": 0, "skipped": 0,
                                    "pass": True}

    def test_graph_above_oracle_cap_is_solved_once_and_decay_checked(self, tmp_path,
                                                                      monkeypatch):
        """A file graph above the dense oracle's cap gets one ARPACK solve of its
        top two pairs, which every variant and the decay check read."""
        edges, attrs = tmp_path / "g.edges", tmp_path / "g.csv"
        assert main(["gen", "--kind", "sbm", "--n", "700", "--block_sizes", "350,350",
                     "--p_in", "0.05", "--p_out", "0.01", "--seed", "3",
                     "--out_edges", str(edges), "--out_attributes", str(attrs)]) == 0
        solves = []

        def counted(solver):
            def solve(*args, **kwargs):
                solves.append(solver.__name__)
                return solver(*args, **kwargs)
            return solve

        for module in (fairspect.cli, fairspect.limits):
            for name in ("top_m_eigenpairs", "dense_eigendecomposition"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(getattr(module, name)))
        out = tmp_path / "verify"
        assert main(["verify", "--edges", str(edges), "--attributes", str(attrs),
                     "--multiplicity_count", "0", "--out_dir", str(out)]) == 0
        assert solves == ["top_m_eigenpairs"]
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["decay"]["checked"] == 1
        assert all(summary[variant]["graphs"] == 1 for variant in ("lemma1", "thm1", "thm2"))

    @pytest.mark.parametrize("variants, complaint", [
        ("lemma1,thm9", "unknown variant 'thm9'"),
        # the thm2 series would be written twice while the summary counts each graph once
        ("thm2,thm1,thm2", "lists 'thm2' twice"),
        # no variant checked would still print PASS
        (",", "names no variant"),
    ])
    def test_bad_variants_are_usage_errors(self, tmp_path, monkeypatch, capsys,
                                           variants, complaint):
        def unreachable(*args, **kwargs):
            raise AssertionError("the battery was built before --variants was checked")

        monkeypatch.setattr(fairspect.cli, "build_alignment_battery", unreachable)
        out = tmp_path / "verify"
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite_size", "3", "--variants", variants,
                  "--out_dir", str(out)])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert "--variants" in err and complaint in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, flag", [
        (["--suite_size", "-1"], "--suite_size"),
        (["--multiplicity_count", "-2"], "--multiplicity_count"),
        (["--tol", "nan"], "--tol"),
        # "--tol -1e-6" would read -1e-6 as a flag
        (["--tol=-1e-6"], "--tol"),
        (["--decay_tolerance", "inf"], "--decay_tolerance"),
        (["--decay_tolerance", "nan"], "--decay_tolerance"),
        # no hop to take: raised before the battery is built
        (["--k_max", "0"], "--k_max"),
    ])
    def test_negative_or_nonfinite_flag_is_usage_error(self, tmp_path, capsys, flags, flag):
        out = tmp_path / "verify"
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite_size", "2", *flags, "--out_dir", str(out)])
        assert excinfo.value.code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_empty_battery_is_usage_error(self, tmp_path, capsys):
        # no graph checked would still print PASS
        out = tmp_path / "verify"
        code = main(["verify", "--suite_size", "0", "--multiplicity_count", "0",
                     "--out_dir", str(out)])
        assert code == 1
        assert "--suite_size" in capsys.readouterr().err
        assert not out.exists()

    def test_suite_size_is_unused_with_edges(self, tmp_path):
        edges, attrs = write_k3(tmp_path)
        mask = tmp_path / "mask.ids"
        mask.write_text("2\n")
        assert main(["verify", "--edges", str(edges), "--attributes", str(attrs),
                     "--mask", str(mask), "--suite_size", "0", "--k_max", "30",
                     "--multiplicity_count", "0", "--out_dir", str(tmp_path / "verify")]) == 0

    def test_attributes_without_edges_is_usage_error(self, tmp_path, capsys):
        # the synthetic battery would run and never open either file
        out = tmp_path / "verify"
        code = main(["verify", "--attributes", str(tmp_path / "absent.csv"),
                     "--mask", str(tmp_path / "absent.mask"), "--suite_size", "2",
                     "--out_dir", str(out)])
        assert code == 1
        assert "--attributes only with --edges" in capsys.readouterr().err
        assert not out.exists()

    def test_mask_without_attributes_is_usage_error(self, tmp_path, capsys):
        # the file's graph would get a random sensitive column and drop the mask
        edges, _ = write_k3(tmp_path)
        mask = tmp_path / "mask.ids"
        mask.write_text("2\n")
        out = tmp_path / "verify"
        code = main(["verify", "--edges", str(edges), "--mask", str(mask),
                     "--multiplicity_count", "0", "--out_dir", str(out)])
        assert code == 1
        assert "--mask only with --attributes" in capsys.readouterr().err
        assert not out.exists()


TRAIN_FIELD_OPTIONS = [
    "--config", "--m", "--k_hops", "--layers", "--hidden", "--heads", "--d_m", "--lr",
    "--weight_decay", "--epochs", "--seed", "--missing_rate", "--sensitive_in_features",
    "--spectral_fusion", "--train_size",
]


@pytest.mark.parametrize("command, options", [
    ("train", ["-h", "--help", "--edges", "--attributes", "--mask", "--dataset", "--out_dir",
               *TRAIN_FIELD_OPTIONS]),
    ("sweep", ["-h", "--help", "--edges", "--attributes", "--mask", "--dataset", "--out_dir",
               "--missing_rates", "--seeds", *TRAIN_FIELD_OPTIONS]),
])
def test_run_command_options_and_their_order(command, options):
    parser = fairspect.cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actions = commands.choices[command]._actions
    assert [flag for action in actions for flag in action.option_strings] == options
    switches = [a.dest for a in actions if a.choices is not None]
    assert switches == ["sensitive_in_features", "spectral_fusion"]
    assert all(a.choices == (0, 1) and a.type is int for a in actions if a.choices)


class TestConfigAndExitCodes:
    def test_config_file_with_flag_override(self, tmp_path):
        edges, attrs = gen_dataset(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "edges": str(edges), "attributes": str(attrs),
            "epochs": 8, "m": 3, "hidden": 8, "d_m": 4, "seed": 4,
            "out_dir": str(tmp_path / "from_config"),
        }))
        code = main(["train", "--config", str(config), "--epochs", "5"])
        assert code == 0
        report = json.loads((tmp_path / "from_config" / "report.json").read_text())
        assert report["config"]["epochs"] == 5  # flag wins over file

    def test_missing_inputs_is_usage_error(self, tmp_path):
        assert main(["train", "--out_dir", str(tmp_path)]) == 1

    def test_unreadable_file_is_usage_error(self, tmp_path):
        code = main(["train", "--edges", str(tmp_path / "none.edges"),
                     "--attributes", str(tmp_path / "none.csv")])
        assert code == 1

    def test_unknown_flag_exits_one(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--bogus", "1"])
        assert excinfo.value.code == 1

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epoch": 5}))  # typo for "epochs"
        assert main(["train", "--config", str(config)]) == 1

    @pytest.mark.parametrize("key,value", [
        ("m", "2"), ("spectral_fusion", "0"), ("spectral_fusion", 2), ("m", 2.5),
        ("m", True), ("lr", "0.1"), ("epochs", None), ("sensitive_in_features", 0.0),
    ])
    def test_config_value_of_wrong_type_is_usage_error(self, tmp_path, capsys, key, value):
        edges, attrs = write_k3(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"edges": str(edges), "attributes": str(attrs),
                                      "epochs": 2, key: value}))
        code = main(["train", "--config", str(config), "--out_dir", str(tmp_path / "run")])
        assert code == 1
        assert re.search(rf"error: config key '{key}' must be", capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key,value", [
        ("seeds", 5), ("seeds", [0, 1.5]), ("seeds", [True]), ("missing_rates", 0.1),
        ("missing_rates", ["0.1"]), ("edges", 5), ("attributes", ["k3.csv"]),
        ("out_dir", {"path": "run"}), ("dataset", 3), ("mask", False),
        ("missing_rates", "x"), ("seeds", "0,a"),
    ])
    def test_run_key_of_wrong_type_is_usage_error(self, tmp_path, capsys, key, value):
        edges, attrs = write_k3(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"edges": str(edges), "attributes": str(attrs),
                                      "out_dir": str(tmp_path / "run"), "epochs": 2,
                                      key: value}))
        assert main(["sweep", "--config", str(config)]) == 1
        assert re.search(rf"error: config key '{key}' must be", capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag,value", [("--seeds", "a,b"), ("--missing_rates", "0.1,x")])
    def test_malformed_grid_flag_is_usage_error_naming_it(self, tmp_path, capsys, flag, value):
        edges, attrs = write_k3(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--edges", str(edges), "--attributes", str(attrs),
                  "--out_dir", str(tmp_path / "run"), flag, value])
        assert excinfo.value.code == 1
        assert f"error: argument {flag}: expected comma-separated" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_config_file_grids_and_floats_match_flags(self, tmp_path):
        edges, attrs = gen_dataset(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "edges": str(edges), "attributes": str(attrs), "epochs": 3, "m": 3,
            "hidden": 8, "d_m": 4, "lr": 1, "weight_decay": 0,
            "missing_rates": [0, 0.25], "seeds": [0, 1], "out_dir": str(tmp_path / "file"),
        }))
        assert main(["sweep", "--config", str(config)]) == 0
        assert main(["sweep", "--edges", str(edges), "--attributes", str(attrs),
                     "--epochs", "3", "--m", "3", "--hidden", "8", "--d_m", "4",
                     "--lr", "1", "--weight_decay", "0", "--missing_rates", "0,0.25",
                     "--seeds", "0,1", "--out_dir", str(tmp_path / "flags")]) == 0
        reports = sorted(p.name for p in (tmp_path / "flags").glob("report_*.json"))
        assert reports == sorted(p.name for p in (tmp_path / "file").glob("report_*.json"))
        assert len(reports) == 4
        for name in reports:
            assert (without_runtime(tmp_path / "file" / name)
                    == without_runtime(tmp_path / "flags" / name))
        assert ((tmp_path / "file" / "aggregate.csv").read_bytes()
                == (tmp_path / "flags" / "aggregate.csv").read_bytes())
        report = json.loads((tmp_path / "file" / "report_r0_s0.json").read_text())
        assert report["config"]["lr"] == 1.0 and isinstance(report["config"]["lr"], float)

    def test_config_values_of_admitted_types_train(self, tmp_path):
        edges, attrs = gen_dataset(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "edges": str(edges), "attributes": str(attrs), "epochs": 2, "m": 3,
            "hidden": 8, "d_m": 4, "lr": 1, "spectral_fusion": 0,
            "sensitive_in_features": True, "train_size": None,
        }))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out_dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["spectral_fusion"] is False
        assert report["config"]["sensitive_in_features"] is True

    @pytest.mark.parametrize("edges_text", [
        "# n=1000000000000\n0 1\n",
        "0 1\n1 99999999999999999999\n",
    ])
    def test_oversized_node_count_is_usage_error(self, tmp_path, capsys, edges_text):
        edges, attrs = write_k3(tmp_path)
        edges.write_text(edges_text)
        code = main(["train", "--edges", str(edges), "--attributes", str(attrs),
                     "--out_dir", str(tmp_path / "run")])
        assert code == 1
        assert "error: line" in capsys.readouterr().err

    def test_out_of_memory_is_usage_error(self, tmp_path, capsys, monkeypatch):
        edges, attrs = write_k3(tmp_path)

        def exhausted(text):
            raise MemoryError("cannot allocate the adjacency")

        monkeypatch.setattr("fairspect.cli.load_edge_list", exhausted)
        code = main(["verify", "--edges", str(edges), "--attributes", str(attrs),
                     "--out_dir", str(tmp_path / "verify")])
        assert code == 1
        assert "error: out of memory" in capsys.readouterr().err

    @pytest.mark.usefixtures("nan_eigenvector")
    def test_nan_eigenvector_is_numerical_failure(self, tmp_path, capsys):
        edges, attrs = gen_dataset(tmp_path)
        code = main(["train", "--edges", str(edges), "--attributes", str(attrs),
                     "--m", "3", "--epochs", "2", "--out_dir", str(tmp_path / "run")])
        assert code == 2
        assert "max residual nan" in capsys.readouterr().err

    @staticmethod
    def gen_groups(tmp_path, classes):
        """Four blocks with ``classes`` sensitive groups and no label flip: a
        label is its group's parity, so the even groups have no positives."""
        edges, attrs = tmp_path / "g.edges", tmp_path / "g.csv"
        assert main(["gen", "--kind", "sbm", "--n", "400", "--block_sizes", "100,100,100,100",
                     "--p_in", "0.1", "--p_out", "0.01", "--sensitive_classes", str(classes),
                     "--out_edges", str(edges), "--out_attributes", str(attrs)]) == 0
        return edges, attrs

    @pytest.fixture
    def solves(self, monkeypatch):
        """The argument tuples of every ``top_m_eigenpairs`` call a run makes."""
        calls = []
        solve = fairspect.model.top_m_eigenpairs

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(fairspect.model, "top_m_eigenpairs", counted)
        return calls

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_unscorable_split_is_rejected_before_training(self, tmp_path, capsys,
                                                          monkeypatch, solves, command):
        # three groups, of which only group 1 has positives
        edges, attrs = self.gen_groups(tmp_path, 3)

        def unreachable(*args, **kwargs):
            raise AssertionError("trained a run whose report is undefined")

        monkeypatch.setattr(fairspect.cli, "train", unreachable)
        grid = ["--seeds", "0,1", "--missing_rates", "0.1"] if command == "sweep" else []
        code = main([command, "--edges", str(edges), "--attributes", str(attrs), *grid,
                     "--out_dir", str(tmp_path / "run")])
        assert code == 1
        assert "error: fewer than two groups have positive nodes" in capsys.readouterr().err
        assert solves == []  # rejected before the eigensolve

    @pytest.mark.parametrize("command, broken, complaint", [
        *((command, ("edges", "attributes"), "line 1: non-integer node id in '0 x'")
          for command in ("train", "sweep")),
        ("train", ("attributes", "mask"), "missing required column 'sensitive'"),
        ("train", ("mask",), "mask line 1: id 400 out of range"),
    ])
    def test_first_bad_input_in_reading_order_is_the_error(self, tmp_path, capsys, solves,
                                                           command, broken, complaint):
        # the edge list, the attribute table, the mask file, then the split,
        # which is unscorable here: three groups, of which only group 1 has positives
        edges, attrs = self.gen_groups(tmp_path, 3)
        mask = tmp_path / "g.mask"
        mask.write_text("0\n")
        paths = {"edges": edges, "attributes": attrs, "mask": mask}
        bad = {"edges": "0 x\n", "attributes": "id,f0\n0,1.0\n", "mask": "400\n"}
        for name in broken:
            paths[name].write_text(bad[name])
        masked = ["--mask", str(mask)] if command == "train" else []
        assert main([command, "--edges", str(edges), "--attributes", str(attrs), *masked,
                     "--out_dir", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: {complaint}\n"
        assert not (tmp_path / "run").exists()
        assert solves == []

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("flags, complaint", [
        (["--lr", "nan"], "learning rate must be finite and nonnegative"),
        (["--lr", "inf"], "learning rate must be finite and nonnegative"),
        (["--lr", "-1"], "learning rate must be finite and nonnegative"),
        (["--weight_decay", "nan"], "weight decay must be finite and nonnegative"),
        (["--weight_decay", "inf"], "weight decay must be finite and nonnegative"),
        (["--epochs", "0"], "epochs must be >= 1"),
        (["--train_size", "0"], "train_size must be >= 1"),
        (["--train_size", "-1"], "train_size must be >= 1"),
    ])
    def test_bad_config_flag_is_rejected_before_any_file_is_read(
            self, tmp_path, capsys, solves, command, flags, complaint):
        # the input files do not exist, so reading them would be the error
        code = main([command, "--edges", str(tmp_path / "none.edges"),
                     "--attributes", str(tmp_path / "none.csv"), *flags,
                     "--out_dir", str(tmp_path / "run")])
        assert code == 1
        assert f"error: {complaint}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        assert solves == []

    @pytest.mark.parametrize("command, key, value, complaint", [
        *((command, key, value, f"{name} must be finite and nonnegative")
          for command in ("train", "sweep")
          for key, name in (("lr", "learning rate"), ("weight_decay", "weight decay"))
          for value in (float("nan"), float("inf"))),
        ("sweep", "missing_rates", [0.1, 1.5], "missing_rate must be in [0, 1)"),
        ("sweep", "missing_rates", [float("nan")], "missing_rate must be in [0, 1)"),
        *((command, "train_size", value, "train_size must be >= 1")
          for command in ("train", "sweep") for value in (0, -1)),
        # an empty grid is no request for the default one
        ("sweep", "missing_rates", [], "config key 'missing_rates' must be a non-empty list "
                                       "of numbers, a comma-separated string or null, got []"),
        ("sweep", "seeds", [], "config key 'seeds' must be a non-empty list "
                               "of integers, a comma-separated string or null, got []"),
    ])
    def test_bad_config_file_value_is_rejected_before_any_file_is_read(
            self, tmp_path, capsys, solves, command, key, value, complaint):
        config = tmp_path / "config.json"
        # Python's json writes and reads NaN and Infinity
        config.write_text(json.dumps({"edges": str(tmp_path / "none.edges"),
                                      "attributes": str(tmp_path / "none.csv"),
                                      "out_dir": str(tmp_path / "run"), key: value}))
        assert main([command, "--config", str(config)]) == 1
        assert f"error: {complaint}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        assert solves == []

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_train_size_above_the_remainder_names_the_bound(self, tmp_path, capsys, command):
        # the bound depends on n, so it is checked once the graph is read;
        # the message offers no value below the 1 that the config requires
        edges, attrs = write_k3(tmp_path)
        code = main([command, "--edges", str(edges), "--attributes", str(attrs),
                     "--train_size", "5", "--out_dir", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == "error: train_size must be at most 3 for n=3\n"

    def test_groups_without_positives_warn_once(self, tmp_path):
        # four groups: 1 and 3 have positives, so the run is scored
        edges, attrs = self.gen_groups(tmp_path, 4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--edges", str(edges), "--attributes", str(attrs),
                         "--epochs", "3", "--out_dir", str(tmp_path / "run")]) == 0
        assert [str(w.message) for w in caught] == [
            f"group {g} has no positives; excluded from TPR variance" for g in (0, 2)]

    def test_serial_sweep_warns_once_per_cell(self, tmp_path, monkeypatch):
        # one process runs all four cells; Python's default action prints a
        # warning once per location, which must not hide a later cell's lines
        monkeypatch.setattr(fairspect.cli, "cpu_budget", lambda: 1)
        edges, attrs = self.gen_groups(tmp_path, 4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            assert main(["sweep", "--edges", str(edges), "--attributes", str(attrs),
                         "--missing_rates", "0.1,0.2", "--seeds", "0,1", "--epochs", "3",
                         "--out_dir", str(tmp_path / "run")]) == 0
        assert [str(w.message) for w in caught] == 4 * [
            f"group {g} has no positives; excluded from TPR variance" for g in (0, 2)]

    def test_gen_rejects_custom_kind(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "--kind", "custom", "--n", "4",
                  "--out_edges", str(tmp_path / "e"),
                  "--out_attributes", str(tmp_path / "a")])
        assert excinfo.value.code == 1


class TestDeterminism:
    # sha256 of each checkpoint array of the masked run below
    MASKED_CHECKPOINT = {
        "attn_q_0":
            "a7f95129dcce2a7e00670ef48e3026f7badb511c607c2d4a7ef29663092ec77f",
        "attn_k_0":
            "753270b6dce51ef96d21ddbaed5ab8aa5330b990b939984e4e99f4ca30326c70",
        "attn_v_0":
            "be1727e548f02f83d3e7903e3b3341e4919e61a908c524388d13f6a9e0d95436",
        "ln_attn_scale":
            "b5fb86efd1e1a358ad6110130c133fec363786dc2151133040360c47d84011a2",
        "ln_attn_shift":
            "75762044f6095543dd18f90c1834937e657a4ed0511731627cc78a6d8638926f",
        "ln_ffn_scale":
            "6c00b2ea9fbb6aa9c6dd3024acb1fe09dd7a2ece906e4908aadec048980068a0",
        "ln_ffn_shift":
            "4b4b1e07ce5e475ced998160beeb2348c81619c733381e62948c2a86eca29741",
        "ffn_w1":
            "a2953e4b8ae1f82d9e869d2ef8c39b4907dcd62d7095e1bf08ae2a9532c14046",
        "ffn_b1":
            "7e91f06161ada1c4eee524290d8976f6f31068f21378b179332ade927026862a",
        "ffn_w2":
            "08faf74bf275d570903cff47a9f573bd01c4c611a93faf117f3b4f2eb10c027b",
        "ffn_b2":
            "2ab065a92e04d2d91a163a41fcab589d565fef4e7f27b3da12242aa7f0fa4466",
        "gate_w_0":
            "11770998c46fc2dd7cf862c7ed8c7ad1ee8550917287940009d099a830d55b4f",
        "gate_b_0":
            "2174bd0cbb4c0a0958eafca72973053b045672900fcfa3cea6efecbb9f2de62d",
        "fuse_w_0":
            "4f6850688fcd93ee86f47eb68bf009d1da88fb5f21c9b67a908586cd0330b002",
        "cls_w":
            "5131d2b38d60886ee9f299c549ee80d09c8c90d129907db9883144a68b63ecb5",
        "cls_b":
            "4ca5342c88736c297bf9d057de3013ed3c9e3a2d02844ec6b90a008837f84564",
    }

    def test_masked_train_checkpoint_digests(self, tmp_path):
        """A masked ``train`` whose eigensolve takes the ARPACK route (n = 48,
        m = 8, so n >= m + 2) keeps every bit of every checkpoint array.

        The products that consume the eigenvectors round by their memory
        layout, so an F-ordered solver output changes these bits. Like the
        verify digests, they depend on the BLAS: a platform with another BLAS
        may need to record them again.
        """
        edges, attrs = gen_dataset(tmp_path)
        mask = tmp_path / "mask.ids"
        assert main(["mask", "--attributes", str(attrs), "--rate", "0.3", "--seed", "4",
                     "--out", str(mask)]) == 0
        out = tmp_path / "run"
        assert main(["train", "--edges", str(edges), "--attributes", str(attrs),
                     "--mask", str(mask), "--epochs", "20", "--out_dir", str(out)]) == 0
        with np.load(out / "checkpoint.npz") as checkpoint:
            digests = {key.removeprefix("param__"): array_digest(checkpoint[key])
                       for key in checkpoint.files if key.startswith("param__")}
        assert digests == self.MASKED_CHECKPOINT

    def test_without_sensitive_in_features_the_model_never_sees_the_column(self, tmp_path):
        """Two tables that differ only in the sensitive column train to the same
        checkpoint bits under ``--sensitive_in_features 0``, and not under 1."""
        edges, attrs = gen_dataset(tmp_path)
        with open(attrs, newline="") as handle:
            header, *rows = csv.reader(handle)
        column = header.index("sensitive")
        flipped = tmp_path / "flipped.csv"
        with open(flipped, "w", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(
                [header] + [row[:column] + [str(1 - int(row[column]))] + row[column + 1:]
                            for row in rows])
        for flag in ("0", "1"):
            arrays = []
            for table in (attrs, flipped):
                out = tmp_path / f"{flag}-{table.stem}"
                assert main(["train", "--edges", str(edges), "--attributes", str(table),
                             "--missing_rate", "0.3", "--epochs", "12", "--m", "3",
                             "--hidden", "8", "--d_m", "4", "--sensitive_in_features", flag,
                             "--out_dir", str(out)]) == 0
                with np.load(out / "checkpoint.npz") as checkpoint:
                    arrays.append({key: checkpoint[key].tobytes() for key in checkpoint.files
                                   if key.startswith("param__")})
            assert (arrays[0] == arrays[1]) == (flag == "0"), flag

    def test_reports_byte_identical_modulo_runtime(self, tmp_path):
        edges, attrs = gen_dataset(tmp_path)
        args = ["train", "--edges", str(edges), "--attributes", str(attrs),
                "--epochs", "12", "--m", "3", "--hidden", "8", "--d_m", "4",
                "--missing_rate", "0.2", "--seed", "9"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out_dir", str(out_a)]) == 0
        assert main(args + ["--out_dir", str(out_b)]) == 0
        rep_a = json.loads((out_a / "report.json").read_text())
        rep_b = json.loads((out_b / "report.json").read_text())
        rep_a["runtime_s"] = rep_b["runtime_s"] = 0.0
        assert json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)
        ckpt_a = np.load(out_a / "checkpoint.npz")
        ckpt_b = np.load(out_b / "checkpoint.npz")
        assert set(ckpt_a.files) == set(ckpt_b.files)
        for key in ckpt_a.files:
            if key.startswith("param__"):
                assert np.array_equal(ckpt_a[key], ckpt_b[key])
