import json
import time

import pytest

from polystep.cli import main


def run_cli(*args):
    return main(list(args))


def run_with_config(tmp_path, values, *flags):
    """``polystep run`` with ``values`` as its config file; returns the exit
    code and the manifest, if one was written."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "out"
    rc = run_cli("run", "--config", str(cfg), *flags, "--out", str(out))
    manifests = list(out.glob("*_manifest.json"))
    return rc, json.loads(manifests[0].read_text()) if manifests else None


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

    def test_flag_beats_config_file(self, tmp_path):
        values = {"problem": "synthetic", "n": 20, "d": 3, "iters": 3, "seeds": 1, "lam": 0.1}
        rc, manifest = run_with_config(tmp_path, values, "--lambda", "0.5")
        assert rc == 0 and manifest["problem"]["lam"] == 0.5

    def test_abbreviated_flag_beats_config_file(self, tmp_path):
        values = {"problem": "counterexample", "iters": 7, "seeds": 1}
        rc, manifest = run_with_config(tmp_path, values, "--iter", "3")
        assert rc == 0 and manifest["K"] == 3

    def test_config_file_seed_list(self, tmp_path):
        values = {"problem": "counterexample", "iters": 3, "seeds": [1, 2]}
        rc, manifest = run_with_config(tmp_path, values)
        assert rc == 0 and manifest["seeds"] == [1, 2]

    @pytest.mark.parametrize("values,flags,message", [
        ({"optimizer": "bogus"}, (), "unknown optimizer 'bogus'"),
        ({"dataset_format": "bogus"}, (), "unknown dataset format 'bogus'"),
        ({}, ("--seeds", "3,3"), "seeds must be distinct"),
        ({}, ("--seeds", "abc"), "seeds must be a count or a list of integers"),
        ({"seeds": "2.5"}, (), "seeds must be a count or a list of integers"),
        ({"seeds": [1.5, 2]}, (), "seeds must be a count or a list of integers"),
    ])
    def test_bad_value_exits_2_before_any_work(self, tmp_path, capsys, values, flags, message):
        values = {"problem": "counterexample", "iters": 3, **values}
        rc, _ = run_with_config(tmp_path, values, *flags)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("values,message", [
        ({"label_sign": "bogus"}, "unknown label sign 'bogus'"),
        ({"interpolated": "yes"}, "'interpolated' must be true or false"),
        ({"n": 2.5}, "'n' expects int"),
        ({"problem": 7}, "unknown problem 7"),
        ({"eta": 10**400}, "'eta' expects float"),
    ])
    def test_config_value_checked_like_its_flag(self, tmp_path, capsys, values, message):
        values = {"problem": "fig1", "n": 5, "d": 2, "iters": 3, "seeds": 1, **values}
        rc, _ = run_with_config(tmp_path, values)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not (tmp_path / "out").exists()

    def test_config_values_converted_like_flags(self, tmp_path):
        values = {"problem": "fig1", "n": "5", "d": 2.0, "iters": 3, "seeds": 1,
                  "interpolated": True, "f_floor": 0}
        rc, manifest = run_with_config(tmp_path, values)
        assert rc == 0
        assert manifest["problem"]["n"] == 5 and manifest["problem"]["interpolated"] is True

    @pytest.mark.parametrize("flags,message", [
        (("--problem", "counterexample", "--reference-tol", "0"), "reference_tol must be > 0"),
        (("--problem", "dataset", "--dataset", "/nonexistent"), "No such file"),
    ])
    def test_library_error_exits_2_with_one_line(self, tmp_path, capsys, flags, message):
        rc = run_cli("run", *flags, "--iters", "3", "--out", str(tmp_path / "out"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_exits_2_with_one_line(self, tmp_path, capsys):
        rc = run_cli("run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "absent.json" in err and "No such file" in err

    def test_output_write_error_is_not_a_usage_error(self, tmp_path):
        # an out path that is a file fails while writing, after the run: it
        # surfaces as the OSError it is, not as a one-line exit 2
        out = tmp_path / "taken"
        out.write_text("")
        with pytest.raises(OSError):
            run_cli("run", "--problem", "counterexample", "--iters", "3", "--seeds", "1",
                    "--out", str(out))

    def test_unreadable_dataset_exits_2_with_one_line(self, tmp_path, capsys):
        data = tmp_path / "bad.svm"
        data.write_text("+1 1:0.5\nnot-a-label 1:2\n")
        rc = run_cli("run", "--problem", "dataset", "--dataset", str(data), "--iters", "3",
                     "--out", str(tmp_path / "out"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bad label 'not-a-label'" in err

    @pytest.mark.parametrize("content,message", [
        ("1 1:0.5 2:1\n-1 1:nan 2:-1\n1 1:0.1 2:0.3\n", ":2: non-finite value '1:nan'"),
        ("1 1:0.5 2:1\n-1 1:1e400 2:-1\n", ":2: non-finite value '1:1e400'"),
        ("1\n-1\n1\n", ": no features"),
        ("1 1:0.5\n3 1:1\n1 1:2\n", ": cannot map label values [1.0, 3.0] to {-1, +1}"),
    ])
    def test_unusable_dataset_exits_2_with_one_line(self, tmp_path, capsys, content, message):
        data = tmp_path / "bad.svm"
        data.write_text(content)
        rc = run_cli("run", "--problem", "dataset", "--dataset", str(data), "--optimizer",
                     "decsps", "--iters", "5", "--seeds", "1", "--out", str(tmp_path / "out"))
        assert rc == 2
        assert capsys.readouterr().err == f"error: {data}{message}\n"
        assert not (tmp_path / "out").exists()

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


    @pytest.mark.parametrize("c0", ["-1", "0"])
    def test_nonpositive_c0_sps_max_exits_2(self, tmp_path, capsys, c0):
        # c_k scales sps_max as it does decsps: -1 used to give negative
        # stepsizes and 0 a divide by zero, both exiting 0
        rc = run_cli("run", "--problem", "fig1", "--n", "10", "--d", "3",
                     "--optimizer", "sps_max", "--c0", c0, "--iters", "20", "--seeds", "2",
                     "--out", str(tmp_path / "out"))
        assert rc == 2
        assert capsys.readouterr().err == "error: c0 must be positive\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    def test_divergence_exits_3_after_writing_every_output(self, tmp_path, capsys):
        # eta=100 overflows on fig1: the outputs are written without a
        # floating-point warning, then one line names the label and seeds
        out = tmp_path / "out"
        rc = run_cli("run", "--problem", "fig1", "--n", "10", "--d", "3",
                     "--optimizer", "sgd_constant", "--eta", "100", "--iters", "200",
                     "--seeds", "2", "--out", str(out))
        assert rc == 3
        assert capsys.readouterr().err == ("error: non-finite values recorded in "
                                           "fig1_sgd_constant seeds 0,1 "
                                           "(see the manifest diagnostics)\n")
        assert len((out / "fig1_sgd_constant.csv").read_text().splitlines()) == 401
        assert len((out / "fig1_sgd_constant_agg.csv").read_text().splitlines()) == 201
        manifest = json.loads((out / "fig1_sgd_constant_manifest.json").read_text())
        assert [d["seed"] for d in manifest["diagnostics"]] == [0, 1]

    def test_separable_unregularized_dataset_fails_fast(self, tmp_path, capsys):
        # no minimizer exists: the reference solve stops at its first
        # separation check instead of running a million iterations
        data = tmp_path / "sep.svm"
        data.write_text("1 1:1 2:0.5\n-1 1:-1 2:0.3\n1 1:0.8 2:-0.2\n-1 1:-0.6 2:-0.9\n")
        t0 = time.perf_counter()
        rc = run_cli("run", "--problem", "dataset", "--dataset", str(data), "--iters", "5",
                     "--seeds", "1", "--out", str(tmp_path / "out"))
        assert time.perf_counter() - t0 < 2.0
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "linearly separable" in err and "--lambda" in err
        assert not (tmp_path / "out").exists()

    def test_landing_on_a_component_minimiser_is_no_failure(self, tmp_path, capsys):
        # gamma_0 = 0.25 / 0.5 lands some seeds exactly on x = 1, where one
        # component has a zero gradient: they stay there and keep recording
        rc = run_cli("run", "--problem", "counterexample", "--optimizer", "decsps",
                     "--c0", "0.5", "--iters", "200", "--seeds", "20", "--out", str(tmp_path))
        assert rc == 0 and capsys.readouterr().err == ""
        manifest = json.loads((tmp_path / "counterexample_decsps_manifest.json").read_text())
        assert manifest["diagnostics"] == []
        agg = (tmp_path / "counterexample_decsps_agg.csv").read_text().splitlines()
        assert len(agg) == 201

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

    def test_colliding_labels_exit_2_before_any_work(self, tmp_path, capsys):
        # 1 and 1.0 give the same label, fig1_decsps_c0_1
        rc = run_cli("sweep", "--problem", "fig1", "--n", "10", "--d", "3",
                     "--optimizer", "decsps", "--sweep-param", "c0", "--sweep-values", "1,1.0",
                     "--iters", "50", "--seeds", "1,2", "--out", str(tmp_path / "out"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'fig1_decsps_c0_1'" in err
        assert not (tmp_path / "out").exists()

    def test_divergence_exits_3_naming_each_label(self, tmp_path, capsys):
        rc = run_cli("sweep", "--problem", "fig1", "--n", "10", "--d", "3",
                     "--optimizer", "sgd_constant", "--sweep-param", "eta",
                     "--sweep-values", "0.01,100", "--iters", "200", "--seeds", "2",
                     "--out", str(tmp_path))
        assert rc == 3
        assert capsys.readouterr().err == ("error: non-finite values recorded in "
                                           "fig1_sgd_constant_eta_100 seeds 0,1 "
                                           "(see the manifest diagnostics)\n")
        assert len((tmp_path / "sweep_summary.csv").read_text().splitlines()) == 3

    def test_non_numeric_value_exits_2(self, tmp_path, capsys):
        rc = run_cli("sweep", "--problem", "counterexample", "--iters", "3",
                     "--sweep-param", "c0", "--sweep-values", "1,x", "--out", str(tmp_path / "out"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "sweep values must be comma-separated numbers" in err
        assert not (tmp_path / "out").exists()

    def test_zero_iterations_exits_2(self, tmp_path, capsys):
        rc = run_cli("sweep", "--problem", "counterexample", "--iters", "0",
                     "--sweep-param", "c0", "--sweep-values", "0.5,1", "--out", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert "K must be >= 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "sweep_summary.csv").exists()


class TestReference:
    def test_nonpositive_tolerance_exits_2(self, tmp_path, capsys):
        rc = run_cli("reference", "--problem", "counterexample", "--reference-tol", "0",
                     "--out", str(tmp_path / "out"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "reference_tol must be > 0" in err

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
