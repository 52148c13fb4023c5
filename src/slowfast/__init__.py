"""Stabilization of slow-fast control systems near non-hyperbolic points.

Normal-form models, blow-up charts, controller synthesis, closed-loop
simulation and region-of-attraction studies.
"""

from .blowup import (
    DirectionalChartState,
    FamilyChartState,
    Weights,
    desing_rhs_directional,
    desing_rhs_family,
    family_time_rescale,
    from_directional_zneg,
    from_family_chart,
    to_directional_zneg,
    to_family_chart,
    weights_for,
)
from .control import (
    Theorem2Params,
    Theorem3Params,
    chart_controller_family,
    closed_loop_jacobian_origin,
    closed_loop_rhs_family,
    eigenvalues_origin,
)
from .normal_form import (
    NormalFormSystem,
    State,
    degeneracy_order,
    eval_g,
    eval_rhs_fast,
    eval_rhs_slow,
    validate,
)
from .roa import GridSpec, RoAReport, compare, sweep
from .sim import (
    IntegratorConfig,
    Outcome,
    Trajectory,
    classify,
    config_for,
    control_sup_norm,
    integrate,
    write_trajectory_csv,
)
from .systems import (
    TunnelDiodeParams,
    TunnelDiodeSystem,
    build_planar_example,
    build_tunnel_diode,
    diode_fold_points,
)

__version__ = "0.1.0"
