"""Fairness-aware spectral graph encoding for node classification under
incomplete sensitive attributes, plus a numerical lab for its alignment
limits."""

from .graph import (
    AttributeMatrix,
    Graph,
    SensitiveColumn,
    Split,
    apply_missing_mask,
    load_attributes,
    load_edge_list,
    make_split,
)
from .spectral import (
    SpectralTruncation,
    dense_eigendecomposition,
    spectral_gap,
    top_m_eigenpairs,
)
from .encoding import (
    cosine_alignment,
    eigenvalue_position_encoding,
    propagate_k_hop,
    zero_pad,
)
from .model import (TrainConfig, forward, gradients, predict, prepare_inputs,
                    structural_truncation, train)
from .fairness import (
    FairnessReport,
    accuracy,
    equal_opportunity,
    multiclass_variance_metrics,
    statistical_parity,
)
from .limits import (
    AlignmentSeries,
    estimate_decay_rate,
    limit_check,
    multiplicity_bound_check,
)
from .synthetic import SyntheticSpec, gen_synthetic

__version__ = "0.1.0"
