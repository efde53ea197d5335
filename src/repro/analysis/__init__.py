"""``repro.analysis`` — post hoc layer-convergence analysis (PWCCA).

The motivation-side tooling of the paper: PWCCA distance against a
fully-trained model (Figure 1), freezable-region detection and the
theoretical compute-saving estimate.
"""

from .convergence import ConvergenceAnalyzer, freezable_regions, theoretical_saving
from .pwcca import cca_correlations, pwcca_distance, pwcca_similarity

__all__ = [
    "pwcca_similarity",
    "pwcca_distance",
    "cca_correlations",
    "ConvergenceAnalyzer",
    "freezable_regions",
    "theoretical_saving",
]
