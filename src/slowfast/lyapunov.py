"""Quadratic Lyapunov certificates for the origin of a polynomial closed loop.

Near a hyperbolic sink of y' = F(y) = c + J y + R(y), with J Hurwitz and R
of degree >= 2, the quadratic form V(y) = y^T P y with J^T P + P J = -I
decreases along solutions on every small enough level set, so its
sublevel sets there are invariant (Lyapunov's indirect method; Khalil,
*Nonlinear Systems*, 3rd ed., section 8.2). :func:`certify` turns that
into a proof for one closed loop: it expands the loop's checked
expression trees into monomials (:func:`slowfast.poly.expand`), solves
for P with numpy, picks a level whose sublevel set lies well inside a
given ball and proves dV/dt < 0 on its boundary from a bound on R made
from the monomials' coefficients. A region-of-attraction cell whose
state reaches that set has then provably stayed in the ball for good,
which :func:`slowfast.sim.integrate` would otherwise confirm by
integrating the dwell.

A field that is not polynomial (a call, a fractional power, a division by
a non-constant, a degree over ``poly.MAX_DEGREE``) refuses the proof, and
so does a non-Hurwitz J or a bound that does not hold with the factor
``SAFETY`` to spare.
"""
from __future__ import annotations

import ast
import math

import numpy as np

from .poly import MAX_DEGREE, NotPolynomial, expand

__all__ = ["lyapunov_matrix", "proves", "certify"]

#: the certified sublevel set lies inside the ball of this fraction of the radius
LEVEL_RADIUS = 0.5
#: factor by which the proved decrease must beat the remainder bound
SAFETY = 2.0


def _split(polys: list[dict], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c, J, B) of the field: constant term, linear part and, at index d,
    the 2-norm over the components of the sums of |coefficient| of degree d."""
    c = np.zeros(n)
    J = np.zeros((n, n))
    sums = np.zeros((n, MAX_DEGREE + 1))
    for i, p in enumerate(polys):
        for e, coef in p.items():
            d = sum(e)
            if d == 0:
                c[i] = coef
            elif d == 1:
                J[i, e.index(1)] = coef
            else:
                sums[i, d] += abs(coef)
    return c, J, np.sqrt(np.sum(sums * sums, axis=0))


def lyapunov_matrix(J: np.ndarray) -> np.ndarray:
    """Symmetric P with J^T P + P J = -I, from the n^2 x n^2 Kronecker system.

    With the row-major vec, vec(J^T P) = (J^T kron I) vec(P) and
    vec(P J) = (I kron J^T) vec(P).
    """
    n = J.shape[0]
    eye = np.eye(n)
    P = np.linalg.solve(np.kron(J.T, eye) + np.kron(eye, J.T), -eye.reshape(-1))
    P = P.reshape(n, n)
    return 0.5 * (P + P.T)


def _frobenius(a: np.ndarray) -> float:
    # summed in numpy, not by np.linalg.norm's BLAS dot, so that a certificate
    # pages in no more of the BLAS than its solves need
    return math.sqrt(float(np.sum(a * a)))


def _least_eigenvalue(S: np.ndarray) -> float:
    """A lower bound on the least eigenvalue of the symmetric S, positive
    when S is positive definite and 0.0 otherwise: 1 / |S^-1|_F."""
    try:
        np.linalg.cholesky(S)
        # one right-hand side per solve, the LAPACK path of lyapunov_matrix
        inverse = np.array([np.linalg.solve(S, e) for e in np.eye(len(S))])
    except np.linalg.LinAlgError:
        return 0.0
    return 1.0 / _frobenius(inverse)


def proves(field: tuple, P: np.ndarray, level: float, ball: float) -> bool:
    """Whether {y^T P y <= level} is a proved-invariant set inside ``ball``.

    ``field`` is (c, J, B) of :func:`_split`. With Q = -(J^T P + P J),

        dV/dt = -y^T Q y + 2 y^T P (c + R(y))
              <= |y| (-q |y| + 2 p (|c| + sum_d B_d |y|^d)),

    where q bounds the least eigenvalue of Q from below, p bounds the
    largest of P from above and |R(y)| <= sum_d B_d |y|^d. With p_min
    bounding the least eigenvalue of P from below, every level set
    {V = l} with level <= l <= 2 level has r_lo <= |y| <= r_hi,
    r_lo = sqrt(level / p) and r_hi = sqrt(2 level / p_min); the bound is
    negative on all of them when
    q > 2 p (|c| / r_lo + sum_d B_d r_hi^(d-1)), which must hold with the
    factor ``SAFETY`` to spare. Proving twice the level leaves room for the
    rounding of V evaluated in floats, and r_hi < ``ball`` puts the whole
    set inside the ball. P and Q must be positive definite, so J is
    Hurwitz (Lyapunov's theorem). The eigenvalue bounds (the Frobenius
    norms of P and of the inverses) are within a factor sqrt(n) of the
    eigenvalues, and need no eigenvalue routine.
    """
    c, J, B = field
    P = np.asarray(P, dtype=float)
    if not (P.shape == J.shape and np.all(np.isfinite(P)) and np.array_equal(P, P.T)
            and math.isfinite(level) and level > 0.0):
        return False
    JP = np.einsum("ki,kj->ij", J, P)  # J^T P, and P J is its transpose
    p_min, q = _least_eigenvalue(P), _least_eigenvalue(-(JP + JP.T))
    if not (p_min > 0.0 and q > 0.0):
        return False
    p = _frobenius(P)
    r_lo, r_hi = math.sqrt(level / p), math.sqrt(2.0 * level / p_min)
    if not r_hi < ball:
        return False
    growth = _frobenius(c) / r_lo + sum(
        float(B[d]) * r_hi ** (d - 1) for d in range(2, len(B)))
    return SAFETY * 2.0 * p * growth <= q


def certify(trees: list[ast.expr], names: list[str], ball: float):
    """(P, level) proving the origin of the polynomial field ``trees`` in
    ``names`` a sink whose sublevel set {y^T P y <= level} stays inside
    ``ball``, or None when the proof is refused.

    J is read from the linear coefficients; when it is not Hurwitz, P is
    not positive definite (or does not exist) and the proof refuses. The
    level is a lower bound on the least eigenvalue of P times
    (``LEVEL_RADIUS`` ball)^2, so the set lies inside that fraction of the
    ball.
    """
    try:
        polys = [expand(tree, names) for tree in trees]
    except NotPolynomial:
        return None
    field = _split(polys, len(names))
    if not all(np.all(np.isfinite(a)) for a in field):
        return None
    try:
        P = lyapunov_matrix(field[1])
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(P)):
        return None
    level = _least_eigenvalue(P) * (LEVEL_RADIUS * ball) ** 2
    return (P, level) if proves(field, P, level, ball) else None
