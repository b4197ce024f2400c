"""mmlab: a computational laboratory for concentration of measure on finite
metric-measure spaces."""

__version__ = "0.1.0"

from .spaces import (  # noqa: F401
    FiniteMMSpace,
    ConcentrationCurve,
    alpha_exact,
    diameter,
    load_space,
    measure,
    neighborhood,
    point_space,
    save_space,
    validate_space,
)
from .generators import (  # noqa: F401
    SamplerConfig,
    build_space,
    hamming_cube,
    hamming_cube_sampled,
    product_space,
    sl2_word_metric,
    so_n_sampled,
    sphere_sampled,
    symmetric_group,
    symmetric_group_sampled,
)
from .concentration import (  # noqa: F401
    GaussianFit,
    LipschitzFunction,
    SearchConfig,
    alpha_lower_bound,
    concentration_curve,
    gaussian_fit,
    hamming_cube_alpha,
    hamming_cube_curve,
    levy_check,
    median,
    sphere_cap_alpha,
    sphere_cap_curve,
    tail_check,
)
from .transport import (  # noqa: F401
    Coupling,
    EmdResult,
    MeasurePair,
    emd,
    translate_distance,
)
from .observable import (  # noqa: F401
    StepFunction,
    best_constant_me1,
    levy_convergence_test,
    lipschitz_extremes,
    me1,
    obs_distance,
)
from .dynamics import (  # noqa: F401
    ColoredHypergraph,
    Cover,
    IsometricAction,
    LEADER_THRESHOLD,
    concentration_property_check,
    fixed_points,
    is_essential,
    leader_certificate,
    leader_empirical,
    ramsey_verify,
    translate_mask,
)
