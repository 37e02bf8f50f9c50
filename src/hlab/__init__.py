"""Sharp operator-norm constants for m-linear integral operators on the
Heisenberg group, with independent quadrature and Monte Carlo verification."""

from .hgroup import (
    Convention,
    GroupDim,
    HPoint,
    ball_volume,
    dilate,
    distance,
    gauge,
    group_inv,
    group_mul,
    origin,
    sphere_measure,
    unit_ball_volume,
)
from .integrate import (
    Estimate,
    Method,
    QuadSpec,
    SeededStream,
    quad_1d,
)
from .operators import (
    KernelSpec,
    McEngine,
    OperatorKind,
    OperatorSpec,
    QuadEngine,
    TestFunction,
    eval_hardy,
    eval_hilbert,
    eval_hlp,
    eval_kernel_op,
    hardy_kernel,
    hilbert_kernel,
    hlp_kernel,
    kernel_constant,
    weighted_norm,
)
from .specfun import (
    AlphaProfile,
    ConstantResult,
    DivergentConstantError,
    beta,
    beta_integral,
    gamma,
    hardy_constant,
    hilbert_constant,
    hlp_constant,
    hlp_region_values,
    i_m_closed,
    i_m_recursive,
    log_gamma,
)
from .verify import (
    DiscrepancyReport,
    SearchReport,
    VerificationReport,
    discrepancy_report,
    upper_bound_search,
    verify_constant,
    verify_extremal,
)

__version__ = "0.1.0"
