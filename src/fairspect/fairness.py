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


def positive_rate(yhat) -> float:
    return float(np.mean(np.asarray(yhat) == 1))


def _population_variance(values) -> float:
    # plain two-pass definition, so results are reproducible bit-for-bit
    # against any direct reimplementation of Var
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / len(values)


def statistical_parity(yhat, s_true, eval_idx) -> float:
    """Absolute gap in positive prediction rates between groups 0 and 1."""
    yh, s = _restrict((yhat, s_true), eval_idx)
    rates = []
    for group in (0, 1):
        mask = s == group
        if not mask.any():
            raise UndefinedMetricError(f"group {group} empty on evaluation set")
        rates.append(positive_rate(yh[mask]))
    return abs(rates[0] - rates[1])


def equal_opportunity(yhat, y, s_true, eval_idx) -> float:
    """Absolute gap in true positive rates between groups 0 and 1."""
    yh, yy, s = _restrict((yhat, y, s_true), eval_idx)
    tprs = []
    for group in (0, 1):
        mask = (s == group) & (yy == 1)
        if not mask.any():
            raise UndefinedMetricError(f"group {group} has no positive nodes")
        tprs.append(positive_rate(yh[mask]))
    return abs(tprs[0] - tprs[1])


def group_positive_rates(yhat, s_true, eval_idx) -> dict[int, float]:
    yh, s = _restrict((yhat, s_true), eval_idx)
    return {int(g): positive_rate(yh[s == g]) for g in np.unique(s)}


def group_tprs(yhat, y, s_true, eval_idx) -> dict[int, float]:
    """TPR per group; groups without positives are omitted."""
    yh, yy, s = _restrict((yhat, y, s_true), eval_idx)
    out = {}
    for g in np.unique(s):
        mask = (s == g) & (yy == 1)
        if mask.any():
            out[int(g)] = positive_rate(yh[mask])
    return out


def multiclass_variance_metrics(yhat, y, s_true, eval_idx) -> tuple[float, float]:
    """Population variance of per-group positive rates and of per-group TPRs.

    Groups absent from the evaluation set contribute nothing; groups without
    positive ground-truth nodes are excluded from the TPR variance with a
    warning. Fewer than two usable groups on either side is an error.
    """
    yh, yy, s = _restrict((yhat, y, s_true), eval_idx)
    groups = np.unique(s)
    if len(groups) < 2:
        raise UndefinedMetricError("variance metrics need at least two groups")
    rates = [positive_rate(yh[s == g]) for g in groups]
    tprs = []
    for g in groups:
        mask = (s == g) & (yy == 1)
        if not mask.any():
            warnings.warn(f"group {int(g)} has no positives; excluded from TPR variance",
                          stacklevel=2)
            continue
        tprs.append(positive_rate(yh[mask]))
    if len(tprs) < 2:
        raise UndefinedMetricError("fewer than two groups have positive nodes")
    return _population_variance(rates), _population_variance(tprs)


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


def build_report(
    yhat,
    y,
    sensitive_values,
    eval_idx,
    dataset: str,
    missing_rate: float,
    seed: int,
    config: dict,
    runtime_s: float,
) -> FairnessReport:
    """Score predictions on the evaluation set and assemble the report.

    Binary sensitive attributes use the absolute-gap metrics; more than two
    groups switch to the variance metrics. Gaps are stored as percentages.
    """
    idx = np.asarray(eval_idx, dtype=np.int64)
    groups = set(np.unique(np.asarray(sensitive_values)[idx]).tolist())
    if groups == {0, 1}:
        d_sp = statistical_parity(yhat, sensitive_values, idx)
        d_eo = equal_opportunity(yhat, y, sensitive_values, idx)
    else:
        # more than two groups, or class ids that are not the binary 0/1
        d_sp, d_eo = multiclass_variance_metrics(yhat, y, sensitive_values, idx)
    rates = {str(g): r for g, r in group_positive_rates(yhat, sensitive_values, idx).items()}
    tprs = {str(g): r for g, r in group_tprs(yhat, y, sensitive_values, idx).items()}
    return FairnessReport(
        dataset=dataset,
        missing_rate=missing_rate,
        seed=seed,
        accuracy=accuracy(yhat, y, idx),
        delta_sp=100.0 * d_sp,
        delta_eo=100.0 * d_eo,
        group_rates={"positive_rate": rates, "tpr": tprs},
        config=config,
        runtime_s=runtime_s,
    )
