"""Order-restricted multiple comparisons of binomial proportions.

Dunnett and Williams multiple-contrast tests on the log-odds scale with
maxT-adjusted p-values, two closed-testing shortcuts (pairwise-contrast
and subset-Williams chains), and a Monte Carlo engine for per-pair
power, any-pair power and familywise error rates.
"""

from .contrasts import (
    ContrastError,
    ContrastMatrix,
    TestReport,
    contrast_moments,
    contrast_test,
    dunnett_matrix,
    williams_matrix,
)
from .ctp import (
    CtpResult,
    closed_analysis,
    ctp_pairwise,
    raw_pairwise_pvalues,
)
from .data import DataFormatError, DoseGroupData, read_counts_csv
from .model import (
    BOUNDARY_POLICIES,
    BoundaryCountError,
    ModelFit,
    NoInformationError,
    fit_saturated_logit,
)
from .mvn import (
    BACKEND,
    CorrelationError,
    MvnSpec,
    TailProbability,
    adjust_maxt,
    adjusted_p_below,
    mvn_upper_orthant_complement,
)
from .simulate import (
    Scenario,
    ScenarioResult,
    StudyConfigError,
    load_study,
    run_scenario,
    run_study,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BOUNDARY_POLICIES",
    "BoundaryCountError",
    "ContrastError",
    "ContrastMatrix",
    "CorrelationError",
    "CtpResult",
    "DataFormatError",
    "DoseGroupData",
    "ModelFit",
    "MvnSpec",
    "NoInformationError",
    "Scenario",
    "ScenarioResult",
    "StudyConfigError",
    "TailProbability",
    "TestReport",
    "adjust_maxt",
    "adjusted_p_below",
    "closed_analysis",
    "contrast_moments",
    "contrast_test",
    "ctp_pairwise",
    "dunnett_matrix",
    "fit_saturated_logit",
    "load_study",
    "mvn_upper_orthant_complement",
    "raw_pairwise_pvalues",
    "read_counts_csv",
    "run_scenario",
    "run_study",
    "williams_matrix",
    "__version__",
]
