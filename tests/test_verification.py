import pytest

from slowfast import blowup, control, normal_form
from slowfast.verification import SUITES, run_suites


# every registered suite but the slow flow certificate
FAST_SUITES = [name for name in SUITES if name != "conjugacy"]


def test_fast_suites_pass_for_several_seeds():
    # seed 0 is pinned, every suite included, by the test below
    for seed in (1, 2):
        for res in run_suites(seed=seed, names=FAST_SUITES):
            assert res.passed, res.line()


# what ``slowfast verify --seed 0`` prints, but max_err: (name, tol, n), in
# order, and the suites whose error is exactly 0
SEED0 = [("quasihomogeneity", 1e-11, 20), ("fast-field-horner", 1e-14, 20),
         ("slow-fast-scaling", 1e-14, 200), ("degeneracy-origin", 0.0, 5),
         ("chart-roundtrip", 1e-12, 2000), ("chart-compatibility", 1e-12, 500),
         ("blowdown-identity", 1e-11, 1418), ("eigenvalues", 1e-9, 200),
         ("jacobian-fd", 1e-6, 9), ("compensation-chart-form", 1e-11, 1266),
         ("scale-behavior", 1e-12, 296), ("tangency", 1e-8, 500),
         ("rhs-continuity-r0", 1e-6, 20), ("conjugacy", 1e-5, 33)]
EXACT = {"quasihomogeneity", "fast-field-horner", "degeneracy-origin", "blowdown-identity",
         "compensation-chart-form", "scale-behavior", "rhs-continuity-r0"}


def test_seed_0_gives_the_same_answers():
    results = run_suites(seed=0)
    assert [(r.name, r.tol, r.n_samples) for r in results] == SEED0
    for res in results:
        assert res.passed, res.line()
        assert res.max_err == 0.0 or res.name not in EXACT, res.line()


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
