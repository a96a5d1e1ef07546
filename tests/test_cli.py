import json

import pytest

from polystep.cli import main


def run_cli(*args):
    return main(list(args))


class TestRun:
    def test_basic_run(self, tmp_path, capsys):
        rc = run_cli("run", "--problem", "counterexample", "--optimizer", "decsps",
                     "--iters", "30", "--seeds", "2", "--out", str(tmp_path))
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert (tmp_path / "counterexample_decsps.csv").exists()
        assert (tmp_path / "counterexample_decsps_manifest.json").exists()

    def test_seed_list(self, tmp_path):
        rc = run_cli("run", "--problem", "counterexample", "--iters", "5",
                     "--seeds", "3,7", "--out", str(tmp_path))
        assert rc == 0
        manifest = json.load(open(tmp_path / "counterexample_decsps_manifest.json"))
        assert manifest["seeds"] == [3, 7]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "counterexample", "iters": 5,
                                   "optimizer": "sgd_decreasing", "seeds": "2"}))
        rc = run_cli("run", "--config", str(cfg), "--optimizer", "decsps",
                     "--out", str(tmp_path))
        assert rc == 0
        # the flag wins over the config file
        assert (tmp_path / "counterexample_decsps.csv").exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--config", str(cfg), "--out", str(tmp_path))
        assert exc.value.code != 0

    def test_unknown_optimizer_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--optimizer", "turbograd")
        assert exc.value.code != 0
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--warp-speed", "9")
        assert exc.value.code != 0

    def test_exact_policy_logistic_batch_errors(self, tmp_path, capsys):
        rc = run_cli("run", "--problem", "synthetic", "--n", "20", "--d", "3",
                     "--optimizer", "sps_max", "--f-star-policy", "exact",
                     "--batch-size", "2", "--iters", "5", "--out", str(tmp_path))
        assert rc == 2
        assert "exact batch minimum" in capsys.readouterr().err

    def test_record_every_zero_exits_2(self, tmp_path, capsys):
        rc = run_cli("run", "--problem", "counterexample", "--iters", "5",
                     "--record-every", "0", "--out", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert "record_every" in err
        assert "Traceback" not in err


    def test_unsound_lower_bound_exits_2(self, tmp_path, capsys):
        rc = run_cli("run", "--problem", "fig1", "--n", "10", "--d", "3",
                     "--f-floor", "-1", "--iters", "5", "--out", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "zero lower bound" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())


class TestSweep:
    def test_c0_sweep(self, tmp_path, capsys):
        rc = run_cli("sweep", "--problem", "counterexample", "--optimizer", "decsps",
                     "--iters", "50", "--seeds", "2", "--sweep-param", "c0",
                     "--sweep-values", "0.5,1,2", "--out", str(tmp_path))
        assert rc == 0
        out = capsys.readouterr().out
        assert "final f_sub_avg" in out
        assert (tmp_path / "sweep_summary.csv").exists()
        assert len(out.strip().splitlines()) == 4  # header + 3 rows

    def test_zero_iterations_exits_2(self, tmp_path, capsys):
        rc = run_cli("sweep", "--problem", "counterexample", "--iters", "0",
                     "--sweep-param", "c0", "--sweep-values", "0.5,1", "--out", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert "K must be >= 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "sweep_summary.csv").exists()


class TestReference:
    def test_cached_reference(self, tmp_path, capsys):
        rc = run_cli("reference", "--problem", "counterexample", "--out", str(tmp_path))
        assert rc == 0
        data = json.load(open(tmp_path / "reference.json"))
        assert data["f_star"] == pytest.approx(2.0 / 3.0)
        assert data["x_star"][0] == pytest.approx(1.0 / 3.0)


class TestVerify:
    def test_verify_passes(self, capsys):
        assert run_cli("verify") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 4
