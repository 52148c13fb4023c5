"""Substitution and rendering of polynomials; the grammar of ``expand`` is
tested in test_lyapunov.py, beside the proof that reads it."""
import numpy as np
import pytest

from slowfast.expr import parse_expression, walk
from slowfast.poly import expand, render, substitute
from slowfast.sim import compile_functions

NAMES = ["x1", "z"]
ENV = {"x1": "x1", "z": "z"}


class TestSubstitute:
    def test_monomial_images_with_negative_powers(self):
        # x1 -> 2 a r^-2, z -> -r: 3 x1^2 z - x1 + 5 = -12 a^2 r^-3 - 2 a r^-2 + 5
        p = expand(parse_expression("3 * x1 ** 2 * z - x1 + 5", ENV), NAMES)
        out = substitute(p, [(2.0, (1, -2)), (-1.0, (0, 1))])
        assert out == {(2, -3): -12.0, (1, -2): -2.0, (0, 0): 5.0}

    def test_meeting_monomials_are_summed(self):
        # x1 -> r, z -> r: x1 + z = 2 r and x1 - z = 0 r
        p = expand(parse_expression("x1 + z", ENV), NAMES)
        assert substitute(p, [(1.0, (1,)), (1.0, (1,))]) == {(1,): 2.0}
        q = expand(parse_expression("x1 - z", ENV), NAMES)
        assert substitute(q, [(1.0, (1,)), (1.0, (1,))]) == {(1,): 0.0}

    def test_agrees_with_walk_at_the_image_point(self):
        src = "(x1 - 2 * z) ** 3 / 3 + x1 * z - 0.5"
        p = expand(parse_expression(src, ENV), NAMES)
        images = [(1.5, (1, -1)), (-0.25, (0, 2))]  # x1 = 1.5 a / r, z = -r^2 / 4
        out = substitute(p, images)
        rng = np.random.default_rng(2)
        for a, r in rng.uniform(0.2, 2.0, size=(20, 2)).tolist():
            value = sum(c * a ** e[0] * r ** e[1] for e, c in out.items())
            at = {"x1": 1.5 * a / r, "z": -0.25 * r * r}
            assert value == pytest.approx(walk(parse_expression(src, ENV), at), rel=1e-12)


class TestRender:
    def test_round_trip_through_expand(self):
        p = {(2, -1): -3.0, (0, 0): 0.5, (1, 1): 2.0}
        tree = render(p, ["a", "r"])
        assert walk(tree, {"a": 2.0, "r": 0.5}) == pytest.approx(-24.0 + 0.5 + 2.0)
        with pytest.raises(ZeroDivisionError):
            walk(tree, {"a": 1.0, "r": 0.0})
        q = {(2, 1): -3.0, (0, 0): 0.5, (1, 1): 2.0}
        assert expand(render(q, ["a", "r"]), ["a", "r"]) == q

    def test_empty_is_zero(self):
        assert walk(render({}, NAMES), {}) == 0.0

    def test_compiles_as_a_checked_tree(self):
        tree = render({(1, 2): 4.0, (0, 0): -1.0}, ["a", "r"])
        ns = compile_functions("def f(a, r):\n    return _t\n", {"_t": tree})
        assert ns["f"](0.5, 3.0) == 17.0
