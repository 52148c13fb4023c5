"""Stabilization of slow-fast control systems near non-hyperbolic points.

Normal-form models, blow-up charts, controller synthesis, closed-loop
simulation and region-of-attraction studies.

Importing the package loads none of its modules. Each name below is
looked up in its module on first access, which imports that module, so a
run pays at start-up only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    **dict.fromkeys(
        ["DirectionalChartState", "FamilyChartState", "family_time_rescale",
         "from_directional_zneg", "from_family_chart", "to_directional_zneg",
         "to_family_chart"],
        "blowup"),
    **dict.fromkeys(
        ["Theorem2Params", "Theorem3Params", "closed_loop_jacobian_origin",
         "eigenvalues_origin"],
        "control"),
    **dict.fromkeys(
        ["NormalFormSystem", "State", "degeneracy_order", "eval_g", "eval_rhs_fast",
         "eval_rhs_slow"],
        "normal_form"),
    **dict.fromkeys(["GridSpec", "RoAReport", "compare", "sweep"], "roa"),
    **dict.fromkeys(
        ["IntegratorConfig", "Outcome", "Trajectory", "classify", "config_for",
         "control_sup_norm", "integrate", "write_trajectory_csv"],
        "sim"),
    **dict.fromkeys(
        ["TunnelDiodeSystem", "build_planar_example", "diode_fold_points"],
        "systems"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted([*globals(), *_EXPORTS])
