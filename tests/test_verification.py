import numpy as np
import pytest

from slowfast import blowup, normal_form
from slowfast.verification import SUITES, run_suites


# every registered suite but the two slow flow certificates
FAST_SUITES = [name for name in SUITES if name not in ("conjugacy", "tangency")]


def test_fast_suites_pass_for_several_seeds():
    for seed in (0, 1, 2):
        for res in run_suites(seed=seed, names=FAST_SUITES):
            assert res.passed, res.line()


def test_contracted_suites_are_registered():
    for name in ("quasihomogeneity", "blowdown-identity", "conjugacy",
                 "eigenvalues", "tangency"):
        assert name in SUITES


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(names=["nope"])


def test_result_line_format():
    res = run_suites(seed=0, names=["degeneracy-origin"])[0]
    line = res.line()
    assert line.startswith("ok") and "degeneracy-origin" in line


def test_nan_fast_field_fails(monkeypatch):
    monkeypatch.setattr(normal_form, "eval_g", lambda x, z, k: np.nan)
    for res in run_suites(seed=0, names=["quasihomogeneity", "fast-field-horner"]):
        assert not res.passed, res.line()
        assert res.line().startswith("FAIL") and "max_err=nan" in res.line()


def test_nan_chart_controller_component_fails(monkeypatch):
    chart_controller = blowup.chart_controller_family

    def last_component_nan(*args):
        out = np.array(chart_controller(*args), dtype=float)
        out[-1] = np.nan
        return out

    monkeypatch.setattr(blowup, "chart_controller_family", last_component_nan)
    res = run_suites(seed=0, names=["blowdown-identity"])[0]
    assert not res.passed and res.line().startswith("FAIL"), res.line()


def test_slow_fast_scaling_sees_a_relative_error_of_1e_12(monkeypatch):
    # the generated loop's own Horner fast field is the reference, so a
    # fault in eval_g shows even though the slow field is built from it
    eval_g = normal_form.eval_g
    monkeypatch.setattr(normal_form, "eval_g",
                        lambda x, z, k: eval_g(x, z, k) * (1.0 + 1e-12))
    res = run_suites(seed=0, names=["slow-fast-scaling"])[0]
    assert not res.passed and res.max_err > 1e-14, res.line()
