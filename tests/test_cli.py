import json
import os
import subprocess
import sys
import textwrap

import pytest

import slowfast
from slowfast import closedloop, scenarios
from slowfast.cli import main


def write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


PLANAR = {
    "system": {"builtin": "planar"},
    "epsilon": 0.05,
    "controller": {"type": "thm2", "a": [1.0], "b": 3.0, "c": [1.0]},
    "ics": [[-2.0, 2.0]],
    "t_final": 10.0,
}


class TestSimulate:
    def test_converged_run_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PLANAR)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert "converged" in capsys.readouterr().out
        assert (tmp_path / "out" / "traj_000.csv").exists()

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        raw = dict(PLANAR)
        raw["epsilonn"] = 0.1
        code = main(["simulate", "--config", write_config(tmp_path, raw)])
        assert code == 1
        assert "epsilonn" in capsys.readouterr().err

    def test_open_loop_divergence_is_not_a_failure(self, tmp_path, capsys):
        raw = dict(PLANAR)
        raw["controller"] = {"type": "none"}
        raw["ics"] = [[0.1, 1.0]]
        code = main(["simulate", "--config", write_config(tmp_path, raw)])
        assert code == 0
        assert "diverged" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_every_ic_failing_exits_two(self, tmp_path, capsys):
        raw = dict(PLANAR)
        raw["system"] = {"builtin": "custom", "k": 2,
                         "f": ["sqrt(-1.0 - x1*x1)"]}
        code = main(["simulate", "--config", write_config(tmp_path, raw)])
        assert code == 2

    def test_custom_system_with_many_slow_states_runs(self, tmp_path, capsys):
        # k = 45: the closed loop has 45 states and its proof form 1035 terms
        raw = dict(PLANAR, system={"builtin": "custom", "k": 45,
                                   "f": ["1 + x1 + z"] + ["-x%d" % i for i in range(2, 45)]},
                   controller={"type": "none"}, ics=[[0.0] * 45], t_final=0.1)
        code = main(["simulate", "--config", write_config(tmp_path, raw),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "traj_000.csv").exists()

    def test_fast_field_too_deep_to_parse_exits_one(self, tmp_path, capsys):
        # the normal form's Horner fast field nests k parentheses; k = 201
        # is refused while the config is checked, before anything runs
        raw = dict(PLANAR, system={"builtin": "custom", "k": 201, "f": ["0"] * 200},
                   controller={"type": "none"}, ics=[[0.0] * 201])
        code = main(["simulate", "--config", write_config(tmp_path, raw)])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error: system: fast field: too many nested parentheses" in err

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1


HOSTILE = {"builtin": "custom", "k": 2,
           "f": ["().__class__.__base__.__subclasses__().__len__()"]}


@pytest.mark.parametrize("command", ["simulate", "roa"])
def test_expression_outside_the_grammar_exits_one(tmp_path, capsys, command):
    raw = dict(PLANAR)
    raw["system"] = HOSTILE
    code = main([command, "--config", write_config(tmp_path, raw),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "system.f" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("t_final", float("inf")),
    ("controller", {"type": "thm2", "a": [1.0], "b": 3.0, "c": [float("nan")]}),
])
def test_non_finite_number_exits_one(tmp_path, capsys, key, value):
    # json reads Infinity and NaN; a config may hold neither
    raw = dict(PLANAR, **{key: value})
    code = main(["simulate", "--config", write_config(tmp_path, raw),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "roa"])
@pytest.mark.parametrize("key, value", [
    ("epsilon", 10 ** 400), ("ics", [[10 ** 400, 0.0]]), ("integrator", {"rtol": 10 ** 400}),
], ids=["epsilon", "ics", "integrator"])
def test_integer_too_large_for_a_float_exits_one(tmp_path, capsys, command, key, value):
    raw = dict(PLANAR, **{key: value})
    code = main([command, "--config", write_config(tmp_path, raw),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "roa"])
@pytest.mark.parametrize("payload, message", [
    (b"\xff\xfe{", "config is not UTF-8 text"),
    (b"[" * 100_000, "config is not valid JSON"),
    (b'{"epsilon": ' + b"1" * 5000 + b"}", "config is not valid JSON"),
], ids=["not-utf8", "nested-too-deep", "integer-too-long"])
def test_unreadable_config_exits_one(tmp_path, capsys, command, payload, message):
    path = tmp_path / "config.json"
    path.write_bytes(payload)
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


CIRCUIT = dict(PLANAR, system={"builtin": "tunnel_diode"}, ics=[[0.0, 0.0, 0.0]])
THM2 = {"type": "thm2", "a": [1.0], "b": 3.0}
BAD_CONTROLLERS = {
    "circuit-thm2plus3": dict(CIRCUIT, controller={
        **THM2, "type": "thm2plus3", "a": [1.0, 1.0], "K": [50.0, 0.0],
        "chi_star": [-2.0, 0.0]}),
    "negative-a": dict(PLANAR, controller={**THM2, "a": [-1.0]}),
    "chi-star-above-minus-one": dict(PLANAR, controller={
        **THM2, "type": "thm2plus3", "K": [50.0], "chi_star": [0.5]}),
    "negative-A": dict(PLANAR, controller={"type": "highgain", "A": [-1.0], "B": 10.0}),
    # a defaulted c and cancel_constants need a finite drift at the origin
    "thm2-drift-raises": dict(PLANAR, controller=THM2, system={
        "builtin": "custom", "k": 2, "f": ["1 / x1"]}),
    "highgain-drift-raises": dict(PLANAR, system={
        "builtin": "custom", "k": 2, "f": ["1 / x1"]}, controller={
        "type": "highgain", "A": [1.0], "B": 10.0, "cancel_constants": True}),
    "thm2-drift-not-finite": dict(PLANAR, controller=THM2, system={
        "builtin": "custom", "k": 2, "f": ["log(x1)"]}),
}


@pytest.mark.filterwarnings("ignore:divide by zero encountered")
@pytest.mark.parametrize("command", ["simulate", "roa"])
@pytest.mark.parametrize("name", list(BAD_CONTROLLERS))
def test_controller_that_cannot_run_exits_one(tmp_path, capsys, command, name):
    code = main([command, "--config", write_config(tmp_path, BAD_CONTROLLERS[name]),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "config error: controller" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "roa"])
def test_system_that_cannot_be_built_exits_one(tmp_path, capsys, command):
    raw = dict(CIRCUIT, system={"builtin": "tunnel_diode", "L": -1.0},
               controller={"type": "none"})
    code = main([command, "--config", write_config(tmp_path, raw),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "config error: system" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "roa"])
def test_division_by_the_constant_zero_exits_one(tmp_path, capsys, command):
    # it read as a numerical failure: every initial condition failed
    # (simulate, exit 2), or every cell diverged (roa, exit 0)
    raw = dict(PLANAR, system={"builtin": "custom", "k": 2, "f": ["x1 / 0"]})
    grid = ["--grid", "2"] if command == "roa" else []
    code = main([command, "--config", write_config(tmp_path, raw),
                 "--out", str(tmp_path / "out"), *grid])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: system")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "roa"])
@pytest.mark.parametrize("integrator", [
    {"rtol": -1}, {"record_stride": 0}, {"min_step": 1e-3, "max_step": 1e-3},
])
def test_integrator_that_cannot_be_built_exits_one(tmp_path, capsys, command, integrator):
    raw = dict(PLANAR, integrator=integrator)
    code = main([command, "--config", write_config(tmp_path, raw),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "config error: integrator" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "roa"])
def test_record_count_that_is_not_finite_exits_one(tmp_path, capsys, command):
    # integrate would raise OverflowError on it, which a run reads as a
    # numerical failure of every initial condition, or of every cell
    raw = dict(PLANAR, t_final=1e300, integrator={"record_stride": 1e-10})
    grid = ["--grid", "2"] if command == "roa" else []
    code = main([command, "--config", write_config(tmp_path, raw),
                 "--out", str(tmp_path / "out"), *grid])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "config error: t_final / integrator.record_stride must be finite")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "roa"])
@pytest.mark.parametrize("window, message", [
    ({"switch_on_time": 1e-14}, "switch_on_time must be 0 or at least"),
    ({"t_final": 1e-14}, "t_final - switch_on_time must be at least"),
    ({"t_final": 10.0, "switch_on_time": 10.0 - 1e-14}, "t_final - switch_on_time must be"),
], ids=["switch_on_time", "t_final", "closed_segment"])
def test_segment_shorter_than_min_step_exits_one(tmp_path, capsys, command, window, message):
    # such a run would stop at once and be classified diverged at t = 0
    raw = dict(PLANAR, ics=[[0.0, 0.0]], **window)
    code = main([command, "--config", write_config(tmp_path, raw),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "out").exists()


class TestRoaCommand:
    def test_malformed_grid_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PLANAR)
        code = main([
            "roa", "--config", cfg, "--out", str(tmp_path / "roa"),
            "--grid", "2", "--x-range", "3", "-3",
        ])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("axis, bounds", [("--x-range", [" -inf", "inf"]),
                                              ("--z-range", ["nan", "1"]),
                                              ("--x-range", [" -1e308", "1e308"])])
    def test_non_finite_grid_exits_one(self, tmp_path, capsys, axis, bounds):
        cfg = write_config(tmp_path, PLANAR)
        code = main(["roa", "--config", cfg, "--out", str(tmp_path / "roa"),
                     "--grid", "3", axis, *bounds])
        assert code == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "roa").exists()

    def test_small_grid_sweep(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PLANAR)
        code = main([
            "roa", "--config", cfg, "--out", str(tmp_path / "roa"),
            "--grid", "2", "--x-range", "-0.01", "0.01",
            "--z-range", "-0.01", "0.01", "--jobs", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged=4" in out
        assert (tmp_path / "roa" / "roa.csv").exists()

    @pytest.mark.parametrize("switch_on_time", [1.0, 0.0])
    def test_sweep_runs_closed_loop_from_zero(self, tmp_path, capsys, switch_on_time):
        cfg = write_config(tmp_path, dict(PLANAR, switch_on_time=switch_on_time))
        code = main([
            "roa", "--config", cfg, "--out", str(tmp_path / "roa"),
            "--grid", "2", "--x-range", "-0.01", "0.01",
            "--z-range", "-0.01", "0.01", "--jobs", "1",
        ])
        written = (tmp_path / "roa" / "roa.csv").exists()
        if switch_on_time > 0:
            assert code == 1 and not written
            assert "config error: switch_on_time" in capsys.readouterr().err
        else:
            assert code == 0 and written


    def test_output_directory_defaults_to_the_configs_outputs(self, tmp_path, capsys,
                                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "from_config"
        cfg = write_config(tmp_path, dict(PLANAR, outputs=str(out)))
        code = main(["roa", "--config", cfg, "--grid", "2", "--x-range", "-0.01", "0.01",
                     "--z-range", "-0.01", "0.01", "--jobs", "1"])
        assert code == 0
        assert (out / "roa.csv").exists()
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["ex1", "--epsilon", "abc"], [], ["nope"],
                                  ["verify", "--seed", "x"]])
def test_usage_error_exits_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "config error: " in capsys.readouterr().err


class TestReproductionCommands:
    def test_ex1_writes_its_outputs(self, tmp_path, capsys):
        code = main(["ex1", "--out", str(tmp_path)])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ex1_summary.txt", "ex1_u_fold_probe.csv", "ex1_u_ic0.csv", "ex1_u_ic1.csv",
            "ex1_v_ic0.csv", "ex1_v_ic1.csv", "ex1_v_literal_ic0.csv"]
        assert "PASS=True" in (tmp_path / "ex1_summary.txt").read_text()

    def test_ex2_matrix_exits_zero(self, tmp_path, capsys):
        code = main(["ex2", "--skip-roa", "--out", str(tmp_path / "ex2")])
        assert code == 0
        assert (tmp_path / "ex2" / "ex2_summary.txt").exists()

    @pytest.mark.parametrize("flags", [
        ["--t-final", "5"], ["--epsilon", "0"], ["--epsilon", "nan"], ["--t-final", "inf"],
        ["--switch-on", "-1"], ["--switch-on", "30"],
        # an integrator that cannot be built: max_step = eps / 2 under min_step
        ["--epsilon", "1e-20"], ["--epsilon", "1e-13"],
        # a segment shorter than the integrator's min_step
        ["--switch-on", "1e-14"], ["--t-final", "10.00000000000001"],
    ])
    def test_ex1_checks_its_flags_before_running(self, tmp_path, capsys, flags):
        code = main(["ex1", "--out", str(tmp_path / "ex1"), *flags])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "ex1").exists()

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_ex2_checks_its_grid_before_running(self, tmp_path, capsys, n):
        code = main(["ex2", "--out", str(tmp_path / "ex2"), "--roa-grid", n])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: --roa-grid")
        assert not (tmp_path / "ex2").exists()


@pytest.mark.parametrize("command", ["simulate", "roa", "ex1", "ex2"])
def test_output_path_under_a_file_exits_one_before_running(tmp_path, capsys, monkeypatch,
                                                           command):
    def integrate(*args, **kwargs):
        raise AssertionError("integrated before the output directory was made")

    monkeypatch.setattr(scenarios, "integrate", integrate)
    monkeypatch.setattr(closedloop, "integrate", integrate)
    (tmp_path / "file").write_text("")
    out = ["--out", str(tmp_path / "file" / "out")]
    argv = {"simulate": ["simulate", "--config", write_config(tmp_path, PLANAR), *out],
            "roa": ["roa", "--config", write_config(tmp_path, PLANAR), "--grid", "2",
                    "--jobs", "1", *out],
            "ex1": ["ex1", *out],
            "ex2": ["ex2", *out]}[command]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("config error: cannot create output directory")


def test_simulate_loads_neither_verification_nor_blowup(tmp_path):
    cfg = write_config(tmp_path, PLANAR)
    code = textwrap.dedent(f"""
        import sys
        import slowfast.cli
        assert slowfast.cli.main(["simulate", "--config", {cfg!r},
                                  "--out", {str(tmp_path / "out")!r}]) == 0
        loaded = [m for m in ("slowfast.verification", "slowfast.blowup")
                  if m in sys.modules]
        assert not loaded, loaded
    """)
    src = os.path.dirname(os.path.dirname(slowfast.__file__))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


class TestVerifyCommand:
    def test_help_names_every_suite(self, capsys):
        from slowfast.verification import SUITES

        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        # help wraps lines, at hyphens too, so compare without whitespace
        flat = "".join(capsys.readouterr().out.split())
        assert len(SUITES) == 14
        assert all(name in flat for name in SUITES)

    def test_fast_suites_pass(self, capsys):
        code = main([
            "verify", "--seed", "1",
            "--suite", "quasihomogeneity",
            "--suite", "blowdown-identity",
            "--suite", "eigenvalues",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("quasihomogeneity", "blowdown-identity", "eigenvalues"):
            assert name in out
        assert "3/3 suites passed" in out

    def test_unknown_suite_exits_one(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 1

    def test_failing_suite_exits_three(self, capsys, monkeypatch):
        import slowfast.verification as verification

        def broken(rng):
            return verification.SuiteResult(
                name="eigenvalues", passed=False, max_err=1.0, tol=1e-9,
                n_samples=1,
            )

        monkeypatch.setitem(verification.SUITES, "eigenvalues", broken)
        code = main(["verify", "--suite", "eigenvalues"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_nan_error_exits_three(self, capsys, monkeypatch):
        import slowfast.normal_form as normal_form

        horner = normal_form._horner  # a NaN coefficient, as inf - inf
        monkeypatch.setattr(normal_form, "_horner", lambda k: f"(1e999 - 1e999) * z + {horner(k)}")
        code = main(["verify", "--suite", "quasihomogeneity"])
        assert code == 3
        assert "FAIL\tquasihomogeneity\tmax_err=nan" in capsys.readouterr().out
