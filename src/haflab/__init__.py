"""Hafnian matrix functions, complex Gaussian fields on a grid, Cox point
processes, and a truncated Fock-space representation that reproduces the
same moments."""

from .errors import (
    CapacityError,
    ConfigError,
    DimensionError,
    HaflabError,
    ModelError,
    PreconditionError,
)
from .kernels import (
    Grid,
    GaussianFieldModel,
    block_kernel,
    builtin_model,
    field_model,
    from_alpha_beta,
    intensity_integral,
    intensity_profile,
    load_model,
    save_model,
    validate_features,
)
from .matfun import alpha_det, bench_hafnian, determinant, hafnian_dp, hafnian_enum, permanent
from .sampling import (
    MomentReport,
    empirical_factorial_moment,
    empirical_product_moment,
    field_moment_mc,
    quadrature_haf_moment,
    replicate_rng,
    sample_cox,
    sample_field,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "ConfigError", "DimensionError", "HaflabError",
    "ModelError", "PreconditionError",
    "Grid", "GaussianFieldModel",
    "block_kernel", "builtin_model", "field_model", "from_alpha_beta",
    "intensity_integral", "intensity_profile", "load_model", "save_model", "validate_features",
    "alpha_det", "bench_hafnian", "determinant", "hafnian_dp",
    "hafnian_enum", "permanent",
    "MomentReport", "empirical_factorial_moment",
    "empirical_product_moment", "field_moment_mc", "quadrature_haf_moment",
    "replicate_rng", "sample_cox", "sample_field",
    "__version__",
]
