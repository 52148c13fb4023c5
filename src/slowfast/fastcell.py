"""Scalar fast path for classifying planar k = 2 sweep cells.

Region-of-attraction sweeps spend nearly all their time stepping tiny
2-dimensional systems, where the array machinery of :mod:`slowfast.sim`
costs far more than the arithmetic. This module unrolls the same
Dormand-Prince 5(4) pair, step controller, divergence guards and
ball/dwell bookkeeping over plain floats for the planar closed loops.
Tests cross-check its classifications against the generic integrator;
everything outside sweeps keeps using :func:`slowfast.sim.integrate`.
"""
from __future__ import annotations

import math

from .sim import (  # the Dormand-Prince tableau is shared with the generic stepper
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
    _A61, _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6,
    _E1, _E3, _E4, _E5, _E6, _E7, IntegratorConfig, NonFiniteError, Outcome,
)

__all__ = ["classify_planar_cell"]


def _make_rhs(kind: str, eps: float, c1: float, a1: float, b: float,
              K1: float, chi1: float):
    inv_eps = 1.0 / eps
    pz = inv_eps ** (1.0 / 3.0)
    px = inv_eps ** (2.0 / 3.0)

    if kind == "open":
        def rhs(x: float, z: float):
            return 1.0 + x + z, -(z * z + x) * inv_eps
    elif kind == "thm2":
        def rhs(x: float, z: float):
            u = -c1 - px * a1 * x + b * pz * z
            return 1.0 + x + z + u, -(z * z + x) * inv_eps
    elif kind == "thm2plus3":
        def rhs(x: float, z: float):
            u = -c1 - px * a1 * x + b * pz * z
            u += K1 * (x * z + (-z) ** 3 * chi1)
            return 1.0 + x + z + u, -(z * z + x) * inv_eps
    else:
        raise ValueError(f"unsupported controller kind {kind!r}")
    return rhs


def classify_planar_cell(
    ic,
    kind: str,
    eps: float,
    c1: float,
    a1: float,
    b: float,
    K1: float,
    chi1: float,
    cfg: IntegratorConfig,
    ball: float = 1e-3,
    dwell: float = 1.0,
    early_stop: bool = True,
) -> Outcome:
    """Outcome of one planar closed-loop cell, without trajectory storage.

    Mirrors integrate-then-classify: ball membership is judged at the
    record-stride boundaries, divergence by the same norm threshold and
    step-collapse guards.
    """
    rhs = _make_rhs(kind, eps, c1, a1, b, K1, chi1)
    x, z = float(ic[0]), float(ic[1])
    if not (math.isfinite(x) and math.isfinite(z)):
        raise NonFiniteError("initial condition contains non-finite entries")
    k1x, k1z = rhs(x, z)
    if not (math.isfinite(k1x) and math.isfinite(k1z)):
        raise NonFiniteError("rhs is not finite at the initial condition")

    t0 = 0.0
    t_final = cfg.t_final
    stride = cfg.record_stride
    rtol, atol = cfg.rtol, cfg.atol
    max_step, min_step = cfg.max_step, cfg.min_step
    div_norm = cfg.divergence_norm

    n_rec = max(1, int(math.ceil((t_final - t0) / stride - 1e-12)))
    margin = dwell + 2.0 * stride

    # first step guess, matching slowfast.sim.integrate
    sx = atol + rtol * abs(x)
    sz = atol + rtol * abs(z)
    d0 = math.sqrt(0.5 * ((x / sx) ** 2 + (z / sz) ** 2))
    d1 = math.sqrt(0.5 * ((k1x / sx) ** 2 + (k1z / sz) ** 2))
    h = min(max_step, t_final - t0)
    if d1 > 0:
        h = min(h, 0.01 * max(d0, 1e-6) / d1)
    h = max(h, min_step)

    t = t0
    rec_i = 0
    diverged_at = None
    inside0 = math.hypot(x, z) < ball
    ball_entry = t0 if inside0 else None  # continuous in-ball entry (early stop)
    suffix_start = t0 if inside0 else None  # start of trailing in-ball samples

    while rec_i < n_rec:
        t_target = t0 + (rec_i + 1) * stride if rec_i + 1 < n_rec else t_final
        gap = t_target - t
        h_try = h if h < max_step else max_step
        if h_try > gap:
            h_try = gap
        # stretch onto the boundary rather than leave an unsteppable sliver
        clamped = h_try >= gap - min_step
        if clamped:
            h_try = gap
        if h_try < min_step:
            diverged_at = t
            break

        yx = x + h_try * (_A21 * k1x)
        yz = z + h_try * (_A21 * k1z)
        k2x, k2z = rhs(yx, yz)
        yx = x + h_try * (_A31 * k1x + _A32 * k2x)
        yz = z + h_try * (_A31 * k1z + _A32 * k2z)
        k3x, k3z = rhs(yx, yz)
        yx = x + h_try * (_A41 * k1x + _A42 * k2x + _A43 * k3x)
        yz = z + h_try * (_A41 * k1z + _A42 * k2z + _A43 * k3z)
        k4x, k4z = rhs(yx, yz)
        yx = x + h_try * (_A51 * k1x + _A52 * k2x + _A53 * k3x + _A54 * k4x)
        yz = z + h_try * (_A51 * k1z + _A52 * k2z + _A53 * k3z + _A54 * k4z)
        k5x, k5z = rhs(yx, yz)
        yx = x + h_try * (_A61 * k1x + _A62 * k2x + _A63 * k3x + _A64 * k4x
                          + _A65 * k5x)
        yz = z + h_try * (_A61 * k1z + _A62 * k2z + _A63 * k3z + _A64 * k4z
                          + _A65 * k5z)
        k6x, k6z = rhs(yx, yz)
        nx = x + h_try * (_B1 * k1x + _B3 * k3x + _B4 * k4x + _B5 * k5x
                          + _B6 * k6x)
        nz = z + h_try * (_B1 * k1z + _B3 * k3z + _B4 * k4z + _B5 * k5z
                          + _B6 * k6z)
        if math.isfinite(nx) and math.isfinite(nz):
            k7x, k7z = rhs(nx, nz)
            ex = h_try * (_E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x
                          + _E6 * k6x + _E7 * k7x)
            ez = h_try * (_E1 * k1z + _E3 * k3z + _E4 * k4z + _E5 * k5z
                          + _E6 * k6z + _E7 * k7z)
            wx = ex / (atol + rtol * max(abs(x), abs(nx)))
            wz = ez / (atol + rtol * max(abs(z), abs(nz)))
            err = math.sqrt(0.5 * (wx * wx + wz * wz))
            if not math.isfinite(err):
                h = 0.5 * h_try
                continue
        else:
            h = 0.5 * h_try
            continue

        if err > 1.0:
            h = h_try * max(0.1, 0.9 * err**-0.2)
            continue

        t = t_target if clamped else t + h_try
        x, z = nx, nz
        k1x, k1z = k7x, k7z
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))
        h = min(max_step, h_try * factor)

        norm = math.hypot(x, z)
        if not math.isfinite(norm) or norm > div_norm:
            diverged_at = t
            break

        inside = norm < ball
        if clamped:
            rec_i += 1
            suffix_start = (suffix_start if suffix_start is not None else t) \
                if inside else None
        if early_stop:
            if inside:
                if ball_entry is None:
                    ball_entry = t
                elif t - ball_entry >= margin:
                    break
            else:
                ball_entry = None

    if diverged_at is not None:
        return Outcome.diverged(diverged_at)
    if suffix_start is not None and t - suffix_start >= dwell * (1.0 - 1e-12):
        return Outcome.converged(suffix_start)
    return Outcome.undecided()
