"""Fairness and utility metrics over predictions, by exact counting.

Metrics always condition on ground-truth group membership; masks only ever
change what the model saw, never how it is scored. Binary gaps are absolute
values, multi-class variants use the population variance of per-group rates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


class UndefinedMetricError(ValueError):
    """A group needed by the metric is empty on the evaluation set."""


def _restrict(arrays, eval_idx):
    idx = np.asarray(eval_idx, dtype=np.int64)
    return [np.asarray(a)[idx] for a in arrays]


def accuracy(yhat, y, eval_idx) -> float:
    """Fraction of correct predictions on the evaluation indices."""
    yh, yy = _restrict((yhat, y), eval_idx)
    if len(yh) == 0:
        raise UndefinedMetricError("empty evaluation set")
    return float(np.mean(yh == yy))


def _population_variance(values) -> float:
    # plain two-pass definition, so results are reproducible bit-for-bit
    # against any direct reimplementation of Var
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / len(values)


def _group_rates(yhat, y, s) -> tuple[dict, dict]:
    """Positive rate and TPR per group, in ascending group order; a group
    without label positives has no TPR, and ``y`` None gives no TPRs.

    One pass over the rows: ``np.unique`` ranks each row's group, and one
    ``bincount`` over (rank, outcome) counts members, predicted positives,
    label positives and true positives per group. Ranks, not the class ids
    (which reach 2^63 - 1), keep the table one row per group. A rate is one
    count over another, so it has the bits of the mean of a 0/1 mask.
    """
    groups, rank = np.unique(np.asarray(s), return_inverse=True)
    outcome = (np.asarray(yhat) == 1).astype(np.int64)
    if y is not None:
        outcome += 2 * (np.asarray(y) == 1)
    # per group: neither, predicted only, label only, both
    cells = np.bincount(4 * rank + outcome, minlength=4 * len(groups)).reshape(-1, 4)
    predicted, positives = cells[:, 1] + cells[:, 3], cells[:, 2] + cells[:, 3]
    has = positives > 0
    rates = dict(zip(groups.tolist(), (predicted / cells.sum(axis=1)).tolist()))
    tprs = dict(zip(groups[has].tolist(), (cells[has, 3] / positives[has]).tolist()))
    return rates, tprs


_NO_MEMBERS = "group {} empty on evaluation set"
_NO_POSITIVES = "group {} has no positive nodes"


def _gap_0_1(rates: dict, undefined: str) -> float:
    """|rate of group 0 - rate of group 1|; ``undefined`` names a group without a rate."""
    for group in (0, 1):
        if group not in rates:
            raise UndefinedMetricError(undefined.format(group))
    return abs(rates[0] - rates[1])


def _variances(rates: dict, tprs: dict, stacklevel: int | None = 3) -> tuple[float, float]:
    # a group without positives warns the public function's caller; None is silent
    if len(rates) < 2:
        raise UndefinedMetricError("variance metrics need at least two groups")
    for group in rates:
        if stacklevel is not None and group not in tprs:
            warnings.warn(f"group {group} has no positives; excluded from TPR variance",
                          stacklevel=stacklevel)
    if len(tprs) < 2:
        raise UndefinedMetricError("fewer than two groups have positive nodes")
    return _population_variance(list(rates.values())), _population_variance(list(tprs.values()))


def statistical_parity(yhat, s_true, eval_idx) -> float:
    """Absolute gap in positive prediction rates between groups 0 and 1."""
    yh, s = _restrict((yhat, s_true), eval_idx)
    rates, _ = _group_rates(yh, None, s)
    return _gap_0_1(rates, _NO_MEMBERS)


def equal_opportunity(yhat, y, s_true, eval_idx) -> float:
    """Absolute gap in true positive rates between groups 0 and 1."""
    _, tprs = _group_rates(*_restrict((yhat, y, s_true), eval_idx))
    return _gap_0_1(tprs, _NO_POSITIVES)


def multiclass_variance_metrics(yhat, y, s_true, eval_idx) -> tuple[float, float]:
    """Population variance of per-group positive rates and of per-group TPRs.

    Groups absent from the evaluation set contribute nothing; groups without
    positive ground-truth nodes are excluded from the TPR variance with a
    warning. Fewer than two usable groups on either side is an error.
    """
    return _variances(*_group_rates(*_restrict((yhat, y, s_true), eval_idx)))


def _gaps(rates: dict, tprs: dict, stacklevel: int | None = 4) -> tuple[float, float]:
    """(SP, EO): |group 0 - group 1| for the binary 0/1 attribute, else the group variances."""
    if set(rates) == {0, 1}:
        return _gap_0_1(rates, _NO_MEMBERS), _gap_0_1(tprs, _NO_POSITIVES)
    # more than two groups, or class ids that are not the binary 0/1
    return _variances(rates, tprs, stacklevel)  # default 4: _variances' 3 plus this frame


@dataclass
class FairnessReport:
    """Persisted outcome of one run: utility, fairness gaps, provenance.

    ``accuracy`` is a fraction in [0, 1]; ``delta_sp`` and ``delta_eo`` are
    percentages (x100), matching how they are conventionally tabulated.
    """

    dataset: str
    missing_rate: float
    seed: int
    accuracy: float
    delta_sp: float
    delta_eo: float
    group_rates: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    runtime_s: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must be a fraction in [0, 1]")
        if self.delta_sp < 0 or self.delta_eo < 0:
            raise ValueError("fairness gaps are nonnegative")

    def to_json_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "missing_rate": self.missing_rate,
            "seed": self.seed,
            "acc": self.accuracy,
            "d_sp": self.delta_sp,
            "d_eo": self.delta_eo,
            "group_rates": self.group_rates,
            "config": self.config,
            "runtime_s": self.runtime_s,
        }


def check_scorable(y, sensitive_values):
    """Raise the ``UndefinedMetricError`` that ``build_report`` would raise,
    without its warnings: each such error depends on the labels and groups
    alone, not on the predictions, so a run can be rejected before training."""
    _gaps(*_group_rates(y, y, sensitive_values), stacklevel=None)


def build_report(
    yhat,
    y,
    sensitive_values,
    dataset: str,
    missing_rate: float,
    seed: int,
    config: dict,
    runtime_s: float,
) -> FairnessReport:
    """Score predictions on every given row and assemble the report.

    Binary sensitive attributes use the absolute-gap metrics; more than two
    groups switch to the variance metrics. Gaps are stored as percentages.
    """
    rates, tprs = _group_rates(yhat, y, sensitive_values)
    d_sp, d_eo = _gaps(rates, tprs)
    return FairnessReport(
        dataset=dataset,
        missing_rate=missing_rate,
        seed=seed,
        accuracy=float(np.mean(np.asarray(yhat) == np.asarray(y))),
        delta_sp=100.0 * d_sp,
        delta_eo=100.0 * d_eo,
        group_rates={"positive_rate": {str(g): r for g, r in rates.items()},
                     "tpr": {str(g): r for g, r in tprs.items()}},
        config=config,
        runtime_s=runtime_s,
    )
