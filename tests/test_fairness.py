import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from fairspect.fairness import (
    FairnessReport,
    UndefinedMetricError,
    accuracy,
    build_report,
    equal_opportunity,
    multiclass_variance_metrics,
    statistical_parity,
)


def idx(n):
    return np.arange(n)


class TestStatisticalParity:
    def test_hand_counting(self):
        yhat = np.array([1, 1, 0, 0, 1, 0, 0, 0])
        s = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        assert statistical_parity(yhat, s, idx(8)) == pytest.approx(0.25)

    def test_identical_predictions_zero_gap(self):
        yhat = np.ones(10, dtype=int)
        s = np.array([0, 1] * 5)
        assert statistical_parity(yhat, s, idx(10)) == 0.0

    def test_group_label_swap_symmetry(self):
        rng = np.random.default_rng(0)
        yhat = rng.integers(0, 2, 30)
        s = rng.integers(0, 2, 30)
        if len(np.unique(s)) < 2:
            s[0], s[1] = 0, 1
        assert statistical_parity(yhat, s, idx(30)) == statistical_parity(yhat, 1 - s, idx(30))

    def test_empty_group_raises(self):
        yhat = np.array([1, 0, 1])
        s = np.array([0, 0, 0])
        with pytest.raises(UndefinedMetricError):
            statistical_parity(yhat, s, idx(3))

    def test_restriction_to_eval_idx(self):
        yhat = np.array([1, 1, 0, 0])
        s = np.array([0, 1, 0, 1])
        sub = np.array([0, 1])  # both predicted 1 -> zero gap
        assert statistical_parity(yhat, s, sub) == 0.0


class TestEqualOpportunity:
    def test_hand_counting(self):
        # group0 positives predicted (1,1); group1 positives predicted (1,0)
        yhat = np.array([1, 1, 1, 0, 0, 0])
        y = np.array([1, 1, 1, 1, 0, 0])
        s = np.array([0, 0, 1, 1, 0, 1])
        assert equal_opportunity(yhat, y, s, idx(6)) == pytest.approx(0.5)

    def test_perfect_classifier_zero_gap(self):
        y = np.array([1, 0, 1, 0, 1, 1])
        s = np.array([0, 0, 1, 1, 0, 1])
        assert equal_opportunity(y, y, s, idx(6)) == 0.0

    def test_all_negative_predictor_zero_gap(self):
        yhat = np.zeros(6, dtype=int)
        y = np.array([1, 1, 1, 0, 1, 0])
        s = np.array([0, 1, 0, 1, 1, 0])
        assert equal_opportunity(yhat, y, s, idx(6)) == 0.0

    def test_no_positives_in_group_raises(self):
        yhat = np.array([1, 0, 1, 0])
        y = np.array([1, 1, 0, 0])
        s = np.array([0, 0, 1, 1])
        with pytest.raises(UndefinedMetricError):
            equal_opportunity(yhat, y, s, idx(4))


class TestMulticlassVariance:
    def test_two_group_hand_value(self):
        # rates 0.5 and 0.25 -> population variance 0.015625
        yhat = np.array([1, 1, 0, 0, 1, 0, 0, 0])
        y = np.ones(8, dtype=int)
        s = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        d_sp, d_eo = multiclass_variance_metrics(yhat, y, s, idx(8))
        assert d_sp == pytest.approx(0.015625)
        assert d_eo == pytest.approx(0.015625)

    def test_equal_rates_zero_variance(self):
        yhat = np.array([1, 0, 1, 0, 1, 0])
        y = np.ones(6, dtype=int)
        s = np.array([0, 0, 1, 1, 2, 2])
        d_sp, d_eo = multiclass_variance_metrics(yhat, y, s, idx(6))
        assert d_sp == 0.0 and d_eo == 0.0

    def test_three_group_hand_value(self):
        # rates 1, 0, 0.5 -> variance 1/6
        yhat = np.array([1, 1, 0, 0, 1, 0])
        y = np.ones(6, dtype=int)
        s = np.array([0, 0, 1, 1, 2, 2])
        d_sp, _ = multiclass_variance_metrics(yhat, y, s, idx(6))
        assert d_sp == pytest.approx(1.0 / 6.0)

    def test_binary_case_matches_absolute_gap_identity(self):
        # variance of two values {a, b} is ((a - b) / 2)^2
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = 40
            yhat = rng.integers(0, 2, n)
            y = rng.integers(0, 2, n)
            s = rng.integers(0, 2, n)
            if (y[s == 0] == 1).sum() == 0 or (y[s == 1] == 1).sum() == 0:
                continue
            d_sp, d_eo = multiclass_variance_metrics(yhat, y, s, idx(n))
            gap_sp = statistical_parity(yhat, s, idx(n))
            gap_eo = equal_opportunity(yhat, y, s, idx(n))
            assert d_sp == pytest.approx((gap_sp / 2) ** 2, abs=1e-15)
            assert d_eo == pytest.approx((gap_eo / 2) ** 2, abs=1e-15)

    def test_group_without_positives_warns_and_excluded(self):
        yhat = np.array([1, 1, 1, 0, 1, 1])
        y = np.array([1, 1, 1, 1, 0, 0])
        s = np.array([0, 0, 1, 1, 2, 2])  # group 2 has no positives
        with pytest.warns(UserWarning, match="no positives"):
            _, d_eo = multiclass_variance_metrics(yhat, y, s, idx(6))
        # TPRs {1.0, 0.5} over the two usable groups
        assert d_eo == pytest.approx(((1.0 - 0.5) / 2) ** 2)

    def test_fewer_than_two_groups_raises(self):
        yhat = np.array([1, 0])
        y = np.array([1, 1])
        s = np.array([0, 0])
        with pytest.raises(UndefinedMetricError):
            multiclass_variance_metrics(yhat, y, s, idx(2))


class TestAccuracy:
    def test_perfect(self):
        y = np.array([0, 1, 1, 0])
        assert accuracy(y, y, idx(4)) == 1.0

    def test_complement(self):
        y = np.array([0, 1, 1, 0])
        assert accuracy(1 - y, y, idx(4)) == 0.0

    def test_three_of_four(self):
        yhat = np.array([0, 1, 1, 1])
        y = np.array([0, 1, 1, 0])
        assert accuracy(yhat, y, idx(4)) == 0.75


class TestInvariances:
    def test_node_permutation_leaves_metrics_unchanged(self):
        rng = np.random.default_rng(2)
        n = 60
        yhat = rng.integers(0, 2, n)
        y = rng.integers(0, 2, n)
        s = rng.integers(0, 2, n)
        y[np.flatnonzero(s == 0)[:2]] = 1
        y[np.flatnonzero(s == 1)[:2]] = 1
        perm = rng.permutation(n)
        ref_sp = statistical_parity(yhat, s, idx(n))
        ref_eo = equal_opportunity(yhat, y, s, idx(n))
        assert statistical_parity(yhat[perm], s[perm], idx(n)) == pytest.approx(ref_sp)
        assert equal_opportunity(yhat[perm], y[perm], s[perm], idx(n)) == pytest.approx(ref_eo)


class TestReport:
    def test_schema_keys_exact(self):
        yhat = np.array([1, 0, 1, 0])
        y = np.array([1, 0, 0, 1])
        s = np.array([0, 1, 0, 1])
        report = build_report(yhat, y, s, dataset="toy", missing_rate=0.1,
                              seed=3, config={"m": 4}, runtime_s=0.5)
        payload = report.to_json_dict()
        assert set(payload) == {"dataset", "missing_rate", "seed", "acc", "d_sp",
                                "d_eo", "group_rates", "config", "runtime_s"}
        json.dumps(payload)  # schema must be serialisable

    def test_percent_scaling(self):
        yhat = np.array([1, 1, 0, 0, 1, 0, 0, 0])
        y = np.ones(8, dtype=int)
        s = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        report = build_report(yhat, y, s, dataset="toy", missing_rate=0.0,
                              seed=0, config={}, runtime_s=0.0)
        assert report.delta_sp == pytest.approx(25.0)  # 0.25 as a percentage
        assert 0.0 <= report.accuracy <= 1.0

    def test_multiclass_switch(self):
        yhat = np.array([1, 0, 1, 0, 1, 0])
        y = np.ones(6, dtype=int)
        s = np.array([0, 0, 1, 1, 2, 2])
        report = build_report(yhat, y, s, dataset="toy", missing_rate=0.0,
                              seed=0, config={}, runtime_s=0.0)
        assert report.delta_sp == pytest.approx(0.0)

    def test_nonstandard_binary_ids_use_variance_path(self):
        yhat = np.array([1, 1, 0, 0, 1, 0, 0, 0])
        y = np.ones(8, dtype=int)
        s = np.array([0, 0, 0, 0, 2, 2, 2, 2])  # two groups but ids {0, 2}
        report = build_report(yhat, y, s, dataset="toy", missing_rate=0.0,
                              seed=0, config={}, runtime_s=0.0)
        assert report.delta_sp == pytest.approx(100 * 0.015625)

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            FairnessReport(dataset="x", missing_rate=0.0, seed=0, accuracy=1.5,
                           delta_sp=0.0, delta_eo=0.0)
        with pytest.raises(ValueError):
            FairnessReport(dataset="x", missing_rate=0.0, seed=0, accuracy=0.5,
                           delta_sp=-1.0, delta_eo=0.0)


def seeded_predictions(seed, n, group_ids, without_positives=()):
    """Random predictions and labels over ``n`` rows in which every group of
    ``group_ids`` appears; groups in ``without_positives`` get no positive label."""
    rng = np.random.default_rng(seed)
    group_ids = np.array(group_ids, dtype=np.int64)
    s = rng.choice(group_ids, size=n)
    s[:len(group_ids)] = group_ids
    y = rng.integers(0, 2, n)
    y[np.isin(s, without_positives)] = 0
    yhat = rng.integers(0, 2, n)
    return yhat, y, s


def report_bytes(yhat, y, s) -> bytes:
    report = build_report(yhat, y, s, dataset="pinned", missing_rate=0.3,
                          seed=7, config={"m": 8}, runtime_s=0.0)
    return json.dumps(report.to_json_dict(), sort_keys=True).encode()


class TestReportBytes:
    """sha256 of the report's JSON over seeded predictions, pinned so a rewrite
    of the scoring keeps every bit of every rate and gap."""

    CASES = {
        "binary": (dict(seed=1, n=500, group_ids=[0, 1]),
                   "aac87102ea4f663fbda99dc733016de278826e5338327e348a7723168f5853b9"),
        "three_groups": (dict(seed=2, n=300, group_ids=[0, 1, 2]),
                         "a9b2b4733289a3c8cfc413c894fdb51ea099e8515cb70c1659f2727cebaece7d"),
        "five_groups": (dict(seed=3, n=400, group_ids=[0, 1, 2, 3, 4]),
                        "112984ca3a629cf4dc9f202f66913e1e39031feba7e5e3fb4f985302b782bf5b"),
        "ids_0_2": (dict(seed=4, n=200, group_ids=[0, 2]),
                    "0c7f5b8adb392454e49710496beb5e3360abb0cd87b1cc3904d40b717ae07020"),
        "group_without_positives": (dict(seed=5, n=300, group_ids=[0, 1, 2, 3],
                                         without_positives=[2]),
                                    "6061d0046d777a0d7eba68f3bfd75234c8f7ef78b5dff7183753352d8bd52de2"),
        "class_id_2_62": (dict(seed=6, n=300, group_ids=[0, 1, 2 ** 62]),
                          "1e01d79dcf813f679bd834dfe52780220a7a893e204ea0f5244694b52bdd81b0"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_report_digest(self, case):
        spec, expected = self.CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            payload = report_bytes(*seeded_predictions(**spec))
        assert hashlib.sha256(payload).hexdigest() == expected

    def test_no_positives_warnings_in_ascending_group_order(self):
        yhat, y, s = seeded_predictions(seed=8, n=300, group_ids=[0, 1, 2, 3, 9],
                                        without_positives=[9, 1, 3])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report_bytes(yhat, y, s)
        assert [str(w.message) for w in caught] == [
            f"group {g} has no positives; excluded from TPR variance" for g in (1, 3, 9)]

    def test_huge_class_id_costs_memory_by_rows_not_by_id(self):
        # a table indexed by the raw id would need 2^62 cells
        predictions = seeded_predictions(seed=6, n=300, group_ids=[0, 1, 2 ** 62])
        tracemalloc.start()
        try:
            report_bytes(*predictions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
