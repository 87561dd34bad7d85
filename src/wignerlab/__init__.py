"""Numerical laboratory for spectral statistics of deformed Wigner ensembles.

The package pairs closed-form limit formulas (deterministic equivalents,
bias, covariance kernels of linear eigenvalue statistics) with exact
combinatorial and Monte Carlo verification machinery.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    AccuracyError,
    ConfigError,
    DegenerateTruncationError,
    DomainError,
    EdgeSingularityError,
    ParameterError,
    RepresentationError,
    SampleError,
    SingularityError,
    WignerlabError,
)
from .freeconv import (  # noqa: F401
    AtomicMeasure,
    SubordinationSolution,
    density,
    integrate_against_rho,
    solve_pastur,
)
from .ensemble import (  # noqa: F401
    Discrete,
    EnsembleParams,
    Gaussian,
    WignerSample,
    choose_delta,
    law_from_config,
    sample,
    truncate_center_homogenize,
)
from .spectral import (  # noqa: F401
    Spectrum,
    eigenvalues,
    linear_statistic,
    trace_resolvent,
    verify_resolvent_identity,
    verify_schur,
)
from .theory import (  # noqa: F401
    FluctuationParams,
    bao_xie_b0,
    bao_xie_c0,
    beta,
    beta_tilde,
    bias_bound,
    extend_bias,
    extend_variance,
    gamma_kernel,
)
