import pytest

from slowfast import blowup, control, normal_form
from slowfast.verification import SUITES, run_suites


# every registered suite but the slow flow certificate
FAST_SUITES = [name for name in SUITES if name != "conjugacy"]


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


# inf - inf: a NaN the expression grammar admits
NAN = "(1e999 - 1e999)"


def test_nan_fast_field_fails(monkeypatch):
    horner = normal_form._horner
    monkeypatch.setattr(normal_form, "_horner", lambda k: f"{NAN} * z + {horner(k)}")
    for res in run_suites(seed=0, names=["quasihomogeneity", "fast-field-horner"]):
        assert not res.passed, res.line()
        assert res.line().startswith("FAIL") and "max_err=nan" in res.line()


def test_nan_chart_controller_component_fails(monkeypatch):
    # the chart controller is the law template blown up, so a NaN term in
    # the template reaches every component
    monkeypatch.setattr(control, "THM2_TEMPLATE",
                        tuple(f"{text} + {NAN}" for text in control.THM2_TEMPLATE))
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


def test_tangency_sees_a_chart_with_the_wrong_sign_of_z(monkeypatch):
    # the z < 0 loop generated with z = +rho is no longer tangent to the
    # fast field pushed through the float blow-down, which keeps z = -rho
    monkeypatch.setattr(blowup, "ZNEG", blowup.Chart("the z < 0 chart field", 1.0, True))
    res = run_suites(seed=0, names=["tangency"])[0]
    assert not res.passed and res.max_err > 1.0, res.line()
