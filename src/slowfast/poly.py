"""Polynomials of checked expression trees, as dicts from exponent tuples
(one entry per variable) to float coefficients.

:func:`expand` reads a polynomial tree of
:func:`slowfast.expr.parse_expression`, :func:`substitute` replaces
each variable by a monomial in new names, with negative exponents where a
chart radius divides, and :func:`render` writes the result back as a
checked tree. The Lyapunov proof and the blow-up algebra load it on first use.
"""
from __future__ import annotations

import ast
from functools import reduce

__all__ = ["NotPolynomial", "MAX_DEGREE", "expand", "substitute", "render"]

#: highest monomial degree an expansion may reach
MAX_DEGREE = 12


class NotPolynomial(ValueError):
    """A tree is not a polynomial of the admitted form."""


def _add(p: dict, q: dict, sign: float = 1.0) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0.0) + sign * c
    return out


def _mul(p: dict, q: dict) -> dict:
    if _degree(p) + _degree(q) > MAX_DEGREE:
        raise NotPolynomial(f"degree over {MAX_DEGREE}")
    out: dict = {}
    for e, c in p.items():
        for f, d in q.items():
            g = tuple(a + b for a, b in zip(e, f))
            out[g] = out.get(g, 0.0) + c * d
    return out


def _degree(p: dict) -> int:
    return max((sum(e) for e in p), default=0)


def expand(tree: ast.expr, names: list[str]) -> dict:
    """Monomials of a checked tree in the variables ``names``.

    Numbers, names, ``+ - *``, unary minus, division by a nonzero constant
    and non-negative integral constant powers are admitted, up to degree
    ``MAX_DEGREE``; anything else, or an unknown name, raises
    :class:`NotPolynomial`.
    """
    zero = (0,) * len(names)
    if isinstance(tree, ast.Constant):
        return {zero: float(tree.value)}
    if isinstance(tree, ast.Name):
        if tree.id not in names:
            raise NotPolynomial(f"unknown name `{tree.id}`")
        return {tuple(int(n == tree.id) for n in names): 1.0}
    if isinstance(tree, ast.UnaryOp) and isinstance(tree.op, (ast.USub, ast.UAdd)):
        p = expand(tree.operand, names)
        return {e: -c for e, c in p.items()} if isinstance(tree.op, ast.USub) else p
    if not isinstance(tree, ast.BinOp):
        raise NotPolynomial(f"`{type(tree).__name__}` is not polynomial")
    if isinstance(tree.op, ast.Pow):
        r = tree.right
        if not (isinstance(r, ast.Constant) and float(r.value).is_integer() and r.value >= 0):
            raise NotPolynomial("a power must be a non-negative integral constant")
        base = expand(tree.left, names)
        if _degree(base) * r.value > MAX_DEGREE:
            raise NotPolynomial(f"degree over {MAX_DEGREE}")
        out = {zero: 1.0}
        for _ in range(int(r.value)):
            out = _mul(out, base)
        return out
    p, q = expand(tree.left, names), expand(tree.right, names)
    if isinstance(tree.op, ast.Add):
        return _add(p, q)
    if isinstance(tree.op, ast.Sub):
        return _add(p, q, -1.0)
    if isinstance(tree.op, ast.Mult):
        return _mul(p, q)
    if isinstance(tree.op, ast.Div):
        d = q.get(zero, 0.0)
        if set(q) - {zero} or d == 0.0:
            raise NotPolynomial("division by a non-constant or by zero")
        return {e: c / d for e, c in p.items()}
    raise NotPolynomial(f"operator `{type(tree.op).__name__}` is not polynomial")


def substitute(p: dict, images: list) -> dict:
    """``p`` with its j-th variable replaced by ``images[j]``, a monomial
    (coefficient, exponents in the new names) whose exponents may be
    negative; monomials that meet are summed."""
    out: dict = {}
    for e, c in p.items():
        exps = [0] * len(images[0][1])
        for n, (a, f) in zip(e, images):
            if n:
                c *= a ** n
                exps = [x + n * y for x, y in zip(exps, f)]
        out[tuple(exps)] = out.get(tuple(exps), 0.0) + c
    return out


def render(p: dict, names: list[str]) -> ast.expr:
    """Checked tree of ``p`` in the local ``names``: the sum of its terms in
    order, each its coefficient times integral powers; 0.0 when empty."""
    def power(name, d):
        node = ast.Name(name, ast.Load())
        return node if d == 1 else ast.BinOp(node, ast.Pow(), ast.Constant(float(d)))

    terms = [reduce(lambda a, b: ast.BinOp(a, ast.Mult(), b),
                    [power(n, d) for n, d in zip(names, e) if d], ast.Constant(float(c)))
             for e, c in p.items()]
    return reduce(lambda a, b: ast.BinOp(a, ast.Add(), b), terms) if terms else ast.Constant(0.0)
