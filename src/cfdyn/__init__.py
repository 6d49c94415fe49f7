"""Continued-fraction digit dynamics.

Exact arithmetic on continued-fraction expansions, a one-parameter family
of digit-comparison interval maps, their transfer operators and invariant
densities, the question-mark function, Lyapunov exponents, and the
Fibonacci-weighted zeta sums attached to the golden-ratio member.
"""

from cfdyn.cf import (
    INF,
    ONE,
    ZERO,
    ContinuedFraction,
    MobiusMap,
    QuadraticSurd,
    SternBrocotString,
    agrees_on_settled,
    cf_complement,
    cf_from_rational,
    cf_from_text,
    cf_to_rational,
    cf_to_text,
    cf_value,
    convergents,
    drop_digits,
    from_binary_string,
    minkowski_q,
    periodic_value,
    replace_first_digit,
    same_digits,
    to_binary_string,
)
from cfdyn.errors import (
    ConvergenceError,
    DerivativeUndefined,
    DomainError,
    NonTerminatingError,
    PoleError,
    PrecisionBudgetError,
    TruncationExhausted,
)
from cfdyn.maps import (
    FIBONACCI_ALPHA,
    GAUSS_ALPHA,
    OrbitRecord,
    fibonacci_fixed_point,
    is_periodic_point,
    jimm,
    log_deriv_at,
    orbit,
    t_alpha_step,
)
from cfdyn.series import SeriesValue, fibonacci, hurwitz_sum, power_tail
from cfdyn.transfer import (
    HALF_MINUS,
    HALF_PLUS,
    GridDensity,
    apply_transfer,
    closed_form_density,
    gkw_matrix,
    hurwitz_image,
    leading_eigen,
    qmark_pushforward,
    residual_b,
    residual_fib_threeterm,
    residual_k_minus,
    residual_kernel_eta,
    residual_lewis,
    residual_master,
    transfer_equivalences,
)
from cfdyn.lyapunov import (
    LyapunovEstimate,
    OrbitAverage,
    lyapunov_orbit,
    lyapunov_qn,
    monte_carlo_lyapunov,
)
from cfdyn.zeta import (
    fib_functional_eq_residual,
    fib_hurwitz,
    fib_zeta,
    hurwitz_zeta,
    zeta_alpha,
)
from cfdyn.verify import CheckResult, SUITES, all_passed

__version__ = "0.1.0"
