"""mmlab: a computational laboratory for concentration of measure on finite
metric-measure spaces.

Every name below is imported from its submodule on first use (PEP 562), so
`import mmlab` loads no submodule until one is needed.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "spaces": ("FiniteMMSpace", "ConcentrationCurve", "alpha_exact", "diameter", "load_space",
               "measure", "neighborhood", "point_space", "save_space", "validate_space"),
    "generators": ("SamplerConfig", "build_space", "hamming_cube", "hamming_cube_sampled",
                   "product_space", "sl2_word_metric", "so_n_sampled", "sphere_sampled",
                   "symmetric_group", "symmetric_group_sampled"),
    "concentration": ("GaussianFit", "LipschitzFunction", "SearchConfig", "alpha_lower_bound",
                      "concentration_curve", "gaussian_fit", "hamming_cube_alpha",
                      "hamming_cube_curve", "levy_check", "median", "sphere_cap_alpha",
                      "sphere_cap_curve", "tail_check"),
    "transport": ("Coupling", "EmdResult", "MeasurePair", "emd", "translate_distance"),
    "observable": ("StepFunction", "best_constant_me1", "levy_convergence_test",
                   "lipschitz_extremes", "me1", "obs_distance"),
    "dynamics": ("ColoredHypergraph", "Cover", "IsometricAction", "LEADER_THRESHOLD",
                 "concentration_property_check", "fixed_points", "is_essential",
                 "leader_certificate", "leader_empirical", "ramsey_verify", "translate_mask"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name):
    """Import the submodule that owns name, and bind name here, the same
    object an eager import would have bound."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
