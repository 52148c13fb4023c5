"""The checked expression grammar of every drift, fast field, slot and law:
:func:`parse_expression` makes a checked tree, which :func:`walk` evaluates
and :func:`slowfast.sim.compile_functions` compiles; it calls only ``SCOPE``.
This module imports no other module of the package.
"""
from __future__ import annotations

import ast
import math
import operator
from functools import lru_cache

import numpy as np

__all__ = ["SCOPE", "parse_expression", "walk"]

_EXPR_FUNCS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs", "tanh")
_EXPR_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _pow(base, exponent):
    """``base ** exponent`` with NaN, as numpy gives, where Python gives a complex."""
    r = base ** exponent
    return math.nan if isinstance(r, complex) else r


#: what a checked tree calls, by name: the listed numpy functions, ``_pow`` and ``float``
SCOPE = {**{name: getattr(np, name) for name in _EXPR_FUNCS}, "_pow": _pow, "float": float}


class _ExprChecker(ast.NodeTransformer):
    """Admits only the expression grammar, in one pass.

    Each name is looked up in ``env``: a string renames it to that local, a
    number makes it a constant. Numbers become floats, ``a ** b`` becomes
    ``_pow(a, b)`` unless b is an integral constant (a float to such a power
    is never complex) and a call ``fn(a)`` becomes ``float(fn(a))``, so every
    value is a float; any other node type is an error, so no
    attribute, subscript, comprehension or call outside the listed numpy
    functions can reach the compiler. The checked tree is built new, so the
    parsed tree can be shared.
    """

    def __init__(self, env: dict):
        self.env = env

    def generic_visit(self, node):
        raise ValueError(f"`{type(node).__name__}` is not allowed")

    def visit_Expression(self, node):
        return self.visit(node.body)

    def visit_Constant(self, node):
        if type(node.value) not in (int, float):
            raise ValueError(f"constant {node.value!r} is not a real number")
        return ast.Constant(float(node.value))

    def visit_Name(self, node):
        if node.id not in self.env:
            raise ValueError(f"unknown name `{node.id}`")
        value = self.env[node.id]
        if isinstance(value, str):
            return ast.Name(value, ast.Load())
        return ast.Constant(float(value))

    def visit_UnaryOp(self, node):
        if not isinstance(node.op, (ast.USub, ast.UAdd)):
            raise ValueError(f"`{type(node.op).__name__}` is not allowed")
        return ast.UnaryOp(node.op, self.visit(node.operand))

    def visit_BinOp(self, node):
        if not isinstance(node.op, _EXPR_BINOPS):
            raise ValueError(f"operator `{type(node.op).__name__}` is not allowed")
        left, right = self.visit(node.left), self.visit(node.right)
        den = right
        while isinstance(den, ast.UnaryOp):  # -0 is the constant 0 too
            den = den.operand
        if isinstance(node.op, ast.Div) and isinstance(den, ast.Constant) and den.value == 0:
            raise ValueError("division by the constant 0")
        if isinstance(node.op, ast.Pow) and not (
                isinstance(right, ast.Constant) and right.value.is_integer()):
            return ast.Call(ast.Name("_pow", ast.Load()), [left, right], [])
        return ast.BinOp(left, node.op, right)

    def visit_Call(self, node):
        if not (isinstance(node.func, ast.Name) and node.func.id in _EXPR_FUNCS
                and len(node.args) == 1 and not node.keywords
                and not isinstance(node.args[0], ast.Starred)):
            raise ValueError(
                f"only one-argument calls of {', '.join(_EXPR_FUNCS)} are allowed")
        call = ast.Call(ast.Name(node.func.id, ast.Load()), [self.visit(node.args[0])], [])
        return ast.Call(ast.Name("float", ast.Load()), [call], [])


_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Div: operator.truediv, ast.Pow: operator.pow, ast.USub: operator.neg,
        ast.UAdd: operator.pos}


def walk(tree: ast.expr, env: dict):
    """Value of a checked tree with its local names bound by ``env``:
    operation for operation, on the values as given, what it computes
    compiled."""
    if isinstance(tree, ast.Constant):
        return tree.value
    if isinstance(tree, ast.Name):
        return env[tree.id]
    if isinstance(tree, ast.UnaryOp):
        return _OPS[type(tree.op)](walk(tree.operand, env))
    if isinstance(tree, ast.Call):
        return SCOPE[tree.func.id](*[walk(arg, env) for arg in tree.args])
    return _OPS[type(tree.op)](walk(tree.left, env), walk(tree.right, env))


@lru_cache(maxsize=256)
def _parsed(src: str) -> ast.Expression:
    return ast.parse(src, mode="eval")


def parse_expression(src: str, env: dict) -> ast.expr:
    """Checked tree of the expression ``src``.

    The grammar is numbers, the names in ``env`` (a string value renames the
    name to that local, a number binds it as a constant), ``+ - * / **``,
    unary minus and one-argument calls of sin, cos, tan, exp, log, sqrt, abs
    and tanh (the numpy versions, so sqrt and log of a negative number give
    NaN). Anything else, and a division by the constant 0, raises ValueError.
    """
    try:
        return _ExprChecker(env).visit(_parsed(src))
    except (SyntaxError, OverflowError, RecursionError) as exc:
        raise ValueError(str(exc)) from None
