import json

import pytest

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


class TestRoaCommand:
    def test_malformed_grid_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PLANAR)
        code = main([
            "roa", "--config", cfg, "--out", str(tmp_path / "roa"),
            "--grid", "2", "--x-range", "3", "-3",
        ])
        assert code == 1
        assert "config error" in capsys.readouterr().err

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


class TestVerifyCommand:
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
