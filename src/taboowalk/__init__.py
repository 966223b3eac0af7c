"""Hitting times with taboo for symmetric random walks on Z^d.

Closed-form limits, tail-asymptotic constants, full time-domain c.d.f.
curves, and independent Monte Carlo / linear-algebra verification oracles.
"""

from .errors import (
    AsymmetricRates,
    DegenerateSamples,
    DivergentGreenFunction,
    EmptySupport,
    ExtrapolationUnstable,
    InvalidQuery,
    ModelError,
    NonpositiveRate,
    NotConverged,
    NotIrreducible,
    QueryOutsideBox,
    SingularHessian,
    StepTooCoarse,
    TabooWalkError,
    ZeroJumpInSupport,
)
from .kernels import (
    KernelValue,
    QuadratureConfig,
    default_config,
    green_function,
    green_values,
    rho,
    rho_values,
    transition_probability,
    trig_identity_check,
)
from .model import (
    SpectralScalars,
    WalkModel,
    char_exponent,
    is_simple_1d,
    load_model,
    model_from_dict,
    nearest_neighbor_walk,
    save_model,
    simple_walk_1d,
    spectral_scalars,
    support_generates_lattice,
    tilde_gamma,
    validate_model,
)
from .limits import (
    TabooQuery,
    TailAsymptotic,
    TailOrder,
    Variant,
    hitting_limit,
    hitting_tail,
    laplace_hitting,
    laplace_taboo,
    minus_atom,
    taboo_limit,
    taboo_tail,
)
from .curves import (
    CdfCurve,
    TimeGrid,
    hitting_cdf,
    minus_from_plus,
    taboo_cdf,
    tail_extract,
)
from .simulate import (
    McEstimate,
    SimConfig,
    absorption_limit_bracket,
    estimate_taboo_curve,
    fit_tail_order,
)

__version__ = "0.1.0"
