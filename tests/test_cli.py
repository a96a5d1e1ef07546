import json
import math
import os
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import polystep
from polystep import data_io, objectives, runner
from polystep.cli import main
from polystep.core import ConfigurationError
from polystep.data_io import LoadError
from polystep.runner import ProblemSpec, RunConfig
from polystep.steppers import StepperConfig


ONE_SEED = ("--problem", "counterexample", "--seeds", "1")


def run_cli(*args):
    return main(list(args))


@pytest.mark.parametrize("error", [
    LoadError, objectives.SolverFailure, objectives.SingularSystem,
    objectives.UnavailableExactMinimum, objectives.UnsoundLowerBound,
])
def test_every_input_error_is_a_configuration_error(error):
    # the command line catches ConfigurationError alone
    assert issubclass(error, ConfigurationError)


@pytest.mark.parametrize("command,flag", [
    ("run", "--batch-size"), ("sweep", "--sweep-values"), ("reference", "--reference-tol"),
])
def test_help_renders(capsys, command, flag):
    # each flag's help is built from its config field
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: polystep {command}") and flag in out


@pytest.fixture
def no_dataset_read(monkeypatch):
    """Fail the test if a LIBSVM dataset is read."""
    def load(*args, **kwargs):
        raise AssertionError("the dataset was read")
    monkeypatch.setattr(data_io, "load_libsvm", load)


@pytest.fixture(scope="module")
def crlf_svm():
    """A dense LIBSVM file with CRLF line ends: 6000 rows, 30 columns, 1.6 MB."""
    rng = np.random.default_rng(0)
    labels, rows = rng.choice([-1, 1], 6000), rng.standard_normal((6000, 30))
    return "".join(f"{y} " + " ".join(f"{j}:{v:.6g}" for j, v in enumerate(row, 1)) + "\r\n"
                   for y, row in zip(labels.tolist(), rows.tolist())).encode()


# a dataset problem, for the checks that must fail before its file is read
ABSENT = {"problem": "dataset", "dataset": "absent.svm"}


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
        manifest = json.loads((tmp_path / "counterexample_decsps_manifest.json").read_text())
        assert manifest["seeds"] == [3, 7]

    def test_defaults_are_the_library_defaults(self, tmp_path):
        # a flag left out takes its config field's default
        rc = run_cli("run", "--problem", "counterexample", "--out", str(tmp_path))
        assert rc == 0
        manifest = json.loads((tmp_path / "counterexample_decsps_manifest.json").read_text())
        assert manifest["problem"] == asdict(ProblemSpec("counterexample"))
        assert manifest["stepper"] == asdict(StepperConfig())
        defaults = RunConfig(ProblemSpec("counterexample"), "decsps")
        for name in ("B", "K", "record_every", "trace_format", "reference_tol", "x0_scale",
                     "label"):
            assert manifest[name] == getattr(defaults, name), name
        assert manifest["seeds"] == list(defaults.seeds)

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
        # a choice is checked before the (missing) dataset file is opened
        ({"problem": "dataset", "dataset": "absent.svm", "lower_bound": "bogus"}, (),
         "error: unknown lower bound policy 'bogus'; expected one of zero, exact, constant\n"),
        # as is every other setting that needs no problem
        (ABSENT, ("--iters", "0"), "error: iteration count K must be >= 1, got 0\n"),
        (ABSENT, ("--seeds", "0,0"), "error: seeds must be distinct, got [0, 0]\n"),
        (ABSENT, ("--record-every", "0"), "error: record_every must be >= 1, got 0\n"),
        (ABSENT, ("--reference-tol", "0"),
         "error: reference_tol must be > 0 and finite, got 0.0\n"),
        (ABSENT, ("--optimizer", "adam", "--beta2", "2"), "error: beta2 must be in (0, 1), got 2.0\n"),
        # B < 1 needs no n: it used to fail only after the problem was built
        (ABSENT, ("--batch-size", "0"), "error: batch size must be >= 1, got 0\n"),
        (ABSENT, ("--batch-size", "-3"), "error: batch size must be >= 1, got -3\n"),
    ])
    def test_bad_value_exits_2_before_any_work(self, tmp_path, capsys, no_dataset_read,
                                               values, flags, message):
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
        # a path is a string: the number 7 would open file descriptor 7
        ({"problem": "dataset", "dataset": 7}, "'dataset' expects str"),
        ({"out": 5}, "'out' expects str"),
        # a list is no choice (it was an unhashable-type traceback)
        ({"format": ["csv"]}, "unknown trace format ['csv']; expected one of csv, json-lines"),
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

    @pytest.mark.parametrize("values,message", [
        # it used to run the whole grid, then fail in os.makedirs
        ({"problem": "counterexample", "out": "a\0b"}, "out_dir must hold no NUL byte"),
        # it used to fail in the loader's open
        ({"problem": "dataset", "dataset": "x\0.svm"}, "dataset_path must hold no NUL byte"),
    ])
    def test_nul_byte_in_a_config_path_exits_2_before_any_work(self, tmp_path, capsys,
                                                                monkeypatch, values, message):
        # argv cannot carry a NUL byte; a config file can
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"iters": 3, "seeds": 1, **values}))
        rc = run_cli("run", "--config", "cfg.json")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("flags,message", [
        (("--problem", "counterexample", "--reference-tol", "0"), "reference_tol must be > 0"),
        (("--problem", "dataset", "--dataset", "/nonexistent"), "No such file"),
        # stepper settings
        ((*ONE_SEED, "--optimizer", "decsps", "--gamma-b", "nan"), "gamma_b must be finite"),
        ((*ONE_SEED, "--optimizer", "sps_max", "--gamma-b", "nan"), "gamma_b must be finite"),
        ((*ONE_SEED, "--c0", "nan"), "c0 must be finite"),
        ((*ONE_SEED, "--optimizer", "decsps_ns", "--gamma-ell", "nan"), "gamma_ell must be finite"),
        ((*ONE_SEED, "--optimizer", "adagrad_norm", "--b0", "nan"), "b0 must be finite"),
        ((*ONE_SEED, "--lower-bound-value", "nan"), "lower_bound_value must be finite"),
        ((*ONE_SEED, "--eta", "nan"), "eta must be finite"),
        *(((*ONE_SEED, "--optimizer", opt, "--eta", "-1"), "eta must be positive")
          for opt in ("sgd_constant", "sgd_decreasing", "adagrad_norm", "adam", "amsgrad")),
        # problem and seed settings
        (("--problem", "synthetic", "--n", "20", "--d", "3", "--lambda", "-1"), "lam must be"),
        (("--problem", "synthetic", "--n", "20", "--d", "3", "--lambda", "nan"), "lam must be"),
        (("--problem", "synthetic", "--n", "0"), "n must be >= 1, got 0\n"),
        (("--problem", "fig1", "--d", "0"), "d must be >= 1, got 0\n"),
        (("--problem", "fig1", "--n", "10", "--d", "3", "--f-floor", "inf"),
         "f_floor must be finite"),
        (("--problem", "synthetic", "--n", "20", "--d", "3", "--gen-seed", "-1"),
         "gen_seed must be >= 0"),
        (("--problem", "counterexample", "--seeds=-3,1"), "seeds must be >= 0"),
        # an infinite tolerance would stop the solve before its first step
        (("--problem", "counterexample", "--reference-tol", "inf"),
         "reference_tol must be finite"),
        # b0 squared is adagrad_norm's first accumulator: it must not overflow or underflow
        ((*ONE_SEED, "--optimizer", "adagrad_norm", "--b0", "1e200"), "b0 squared must be"),
        ((*ONE_SEED, "--optimizer", "adagrad_norm", "--b0", "1e-200"), "b0 squared must be"),
        (("--problem", "counterexample", "--seeds", "0"), "a run needs at least one seed"),
        # sizes numpy refuses before it allocates anything
        (("--problem", "fig1", "--n", "100", "--d", "1000000000", "--seeds", "1"),
         "cannot allocate the 100x1000000000x1000000000 curvature array"),
        (("--problem", "synthetic", "--n", "1000000000000", "--d", "100000000", "--seeds", "1"),
         "cannot allocate the 1000000000000x100000000 feature matrix"),
    ])
    def test_library_error_exits_2_with_one_line(self, tmp_path, capsys, flags, message):
        rc = run_cli("run", *flags, "--iters", "3", "--out", str(tmp_path / "out"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_exits_2_with_one_line(self, tmp_path, capsys):
        rc = run_cli("run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "absent.json" in err and "No such file" in err

    def test_record_table_too_large_exits_2_before_the_problem_is_built(
            self, tmp_path, capsys, monkeypatch):
        # 2**62 records: numpy refuses the table before it allocates anything
        def fail(*args, **kwargs):
            raise AssertionError("the problem was built or solved")

        monkeypatch.setattr(runner, "build_problem", fail)
        monkeypatch.setattr(objectives, "solve_reference", fail)
        rc = run_cli("run", *ONE_SEED, "--iters", str(2**62), "--out", str(tmp_path / "out"))
        assert rc == 2
        assert capsys.readouterr().err == f"error: cannot allocate the 1x{2**62} record table\n"
        assert not (tmp_path / "out").exists()

    def test_seed_count_too_large_exits_2_before_the_seeds_are_listed(
            self, tmp_path, capsys, monkeypatch):
        # 2**62 seeds: listing them would raise MemoryError, and numpy would
        # refuse their table before it allocates anything
        def fail(*args, **kwargs):
            raise AssertionError("the problem was built or solved")

        monkeypatch.setattr(runner, "build_problem", fail)
        monkeypatch.setattr(objectives, "solve_reference", fail)
        rc = run_cli("run", "--problem", "counterexample", "--seeds", str(2**62),
                     "--iters", "3", "--out", str(tmp_path / "out"))
        assert rc == 2
        assert capsys.readouterr().err == f"error: cannot allocate the {2**62}x3 record table\n"
        assert not (tmp_path / "out").exists()

    def test_empty_out_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = run_cli("run", *ONE_SEED, "--iters", "3", "--out", "")
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: out_dir is empty; name a directory for the outputs\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_through_a_file_exits_2_before_any_work(self, tmp_path, capsys, out):
        # writing the outputs would fail after the whole run
        (tmp_path / "taken").write_text("kept")
        rc = run_cli("run", "--problem", "counterexample", "--iters", "3", "--seeds", "1",
                     "--out", str(tmp_path / out))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "is not a directory" in err
        assert (tmp_path / "taken").read_text() == "kept"

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
        ("1 1:0.5 2:1\n", ": standardizing needs at least 2 rows"),
    ])
    def test_unusable_dataset_exits_2_with_one_line(self, tmp_path, capsys, content, message):
        data = tmp_path / "bad.svm"
        data.write_text(content)
        rc = run_cli("run", "--problem", "dataset", "--dataset", str(data), "--optimizer",
                     "decsps", "--iters", "5", "--seeds", "1", "--out", str(tmp_path / "out"))
        assert rc == 2
        assert capsys.readouterr().err == f"error: {data}{message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content,fmt,message", [
        (b"+1 1:0.5\xff 2:1\n-1 1:2\n", "libsvm", ":1: byte 0xff is not valid UTF-8"),
        (b"y,a\n1,2\n0,3\xfe\n", "delimited", ":3: byte 0xfe is not valid UTF-8"),
        (b"+1 1:0.5\n-1 100000000000000000000000:1\n", "libsvm",
         ":2: index 100000000000000000000000 is too large"),
        (b"+1 1:0.5\n-1 1000000000000000:1\n", "libsvm",
         ": cannot allocate the 2x1000000000000000 feature matrix"),
        pytest.param(b"1 1:1 1000000000000:1\n" * 20000, "libsvm",
                     ": cannot allocate the 20000x1000000000000 feature matrix",
                     id="wide-sparse-file-many-blocks-long"),
        (b"1,0.5,1\n-1,2\n", "delimited", ":2: ragged row (2 cells, expected 3)"),
    ])
    def test_undecodable_or_oversized_dataset_exits_2_with_one_line(
            self, tmp_path, capsys, content, fmt, message):
        data = tmp_path / "bad.data"
        data.write_bytes(content)
        rc = run_cli("run", "--problem", "dataset", "--dataset", str(data), "--dataset-format",
                     fmt, "--iters", "5", "--seeds", "1", "--out", str(tmp_path / "out"))
        assert rc == 2
        assert capsys.readouterr().err == f"error: {data}{message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content,fmt", [
        # a tab and a blank line
        ("1 1:0.5 2:1\n0 1:-0.3\t2:0.2\n\n1 2:0.7\n0 1:0.1 2:-1.5\n", "libsvm"),
        # a header and a blank line
        ("label,a,b\n1,0.5,1\n-1,-0.3,0.2\n\n1,0.1,0.7\n-1,0.1,-1.5\n", "delimited"),
    ], ids=["libsvm", "delimited"])
    def test_dataset_runs_end_to_end(self, tmp_path, content, fmt):
        data = tmp_path / "d.data"
        data.write_text(content)
        rc = run_cli("run", "--problem", "dataset", "--dataset", str(data), "--dataset-format",
                     fmt, "--lambda", "0.1", "--batch-size", "2", "--iters", "20", "--seeds", "2",
                     "--out", str(tmp_path / "out"))
        assert rc == 0
        trace = (tmp_path / "out" / "dataset_decsps.csv").read_text().splitlines()
        assert len(trace) == 1 + 2 * 20

    @pytest.mark.parametrize("last,rc,err", [
        ("", 0, ""),
        ("1 1:1_0\r\n", 0, ""),  # a last line that only the line scan takes
        ("1 1:abc\r\n", 2, ":6001: bad pair '1:abc'\n"),
    ], ids=["clean", "scanned-last-line", "bad-last-line"])
    def test_crlf_dataset_many_reads_long(self, tmp_path, capsys, crlf_svm, last, rc, err):
        data = tmp_path / "crlf.svm"
        data.write_bytes(crlf_svm + last.encode())
        assert data.stat().st_size > 25 * data_io._LIBSVM_BLOCK
        out = tmp_path / "out"
        assert run_cli("run", "--problem", "dataset", "--dataset", str(data), "--lambda", "0.01",
                       "--iters", "20", "--seeds", "1", "--out", str(out)) == rc
        assert capsys.readouterr().err == (f"error: {data}{err}" if err else "")
        if rc == 0:
            assert len((out / "dataset_decsps.csv").read_text().splitlines()) == 21
        else:
            assert not out.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        rc, _ = run_with_config(tmp_path, {"bogus_key": 1})
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown config key 'bogus_key'" in err
        assert not (tmp_path / "out").exists()

    def test_config_that_is_no_object_exits_2(self, tmp_path, capsys):
        rc, _ = run_with_config(tmp_path, [1])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "expected a JSON object, got list" in err

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
                     "--optimizer", "sps_max", "--lower-bound", "exact",
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
        assert capsys.readouterr().err == f"error: c0 must be positive, got {float(c0)}\n"
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

    def test_negative_stepsize_exits_3(self, tmp_path, capsys):
        # a constant bound of 5 lies above every batch minimum of the
        # counterexample: each step goes uphill, with a finite trace
        rc = run_cli("run", "--problem", "counterexample", "--optimizer", "decsps",
                     "--lower-bound", "constant", "--lower-bound-value", "5",
                     "--iters", "50", "--seeds", "2", "--out", str(tmp_path))
        assert rc == 3
        assert capsys.readouterr().err == ("error: negative stepsizes taken in "
                                           "counterexample_decsps seeds 0,1 "
                                           "(see the manifest diagnostics)\n")
        manifest = json.loads((tmp_path / "counterexample_decsps_manifest.json").read_text())
        assert manifest["diagnostics"] == [
            {"seed": s, "k": 0, "reason": "negative stepsize"} for s in (0, 1)]
        assert len((tmp_path / "counterexample_decsps.csv").read_text().splitlines()) == 101

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

    @pytest.mark.parametrize("optimizer,flag,value", [
        ("decsps", "--b0", "1e200"), ("sgd_constant", "--gamma-b", "-1"),
    ], ids=["decsps-b0", "sgd_constant-gamma_b"])
    def test_bad_setting_is_no_failure_for_a_rule_that_ignores_it(self, tmp_path, capsys,
                                                                  optimizer, flag, value):
        # a bound holds only for the rules that read its setting
        rc = run_cli("run", "--problem", "counterexample", "--optimizer", optimizer, flag, value,
                     "--iters", "3", "--seeds", "1", "--out", str(tmp_path))
        assert rc == 0 and capsys.readouterr().err == ""

    @pytest.mark.parametrize("problem,flags", [
        ("synthetic", ("--n", "200", "--d", "20")),
        ("fig1", ("--n", "50", "--d", "100")),  # the step kernel at its largest shape
    ], ids=["synthetic", "fig1-d100"])
    def test_default_run_records_every_step_above_f_star(self, tmp_path, problem, flags):
        # decsps, c_k = sqrt(k+1), gamma_b = 10: a record at every step
        rc = run_cli("run", "--problem", problem, *flags, "--iters", "300", "--seeds", "3",
                     "--out", str(tmp_path))
        assert rc == 0
        f_star = json.loads((tmp_path / f"{problem}_decsps_manifest.json").read_text())["f_star"]
        trace = data_io.read_trace(str(tmp_path / f"{problem}_decsps.csv"))
        assert trace.seeds == (0, 1, 2) and trace.ks.tolist() == list(range(300))
        # no f - f* falls below zero by more than rounding
        floor = -1e-10 * max(1.0, abs(f_star))
        assert trace.f_sub.min() >= floor and trace.f_sub_avg_iterate.min() >= floor
        if problem == "fig1":
            # per seed, gamma_k never rises and stays <= gamma_b / sqrt(k+1), exactly as floats
            bound = np.array([10.0 / math.sqrt(k + 1) for k in range(300)])
            assert (np.diff(trace.gamma, axis=1) <= 0.0).all() and (trace.gamma <= bound).all()

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
        assert len(out.strip().splitlines()) == 4  # header + 3 rows
        assert len((tmp_path / "sweep_summary.csv").read_text().splitlines()) == 4

    @pytest.mark.parametrize("flags", [
        ("--c-schedule", "linear_half"),  # c_k = c0 (k+1)/2
        # c_k = c0: with the exact target, sps_max is SPS_max with c = c0
        ("--c-schedule", "constant", "--lower-bound", "exact"),
    ], ids=["linear_half", "constant-exact"])
    def test_c0_scales_the_c_schedule(self, tmp_path, flags):
        # so each c0 of an sps_max sweep writes its own trace
        rc = run_cli("sweep", "--problem", "fig1", "--n", "10", "--d", "3",
                     "--optimizer", "sps_max", *flags, "--sweep-param", "c0",
                     "--sweep-values", "0.5,1,2", "--iters", "50", "--seeds", "0,1",
                     "--out", str(tmp_path))
        assert rc == 0
        traces = [(tmp_path / f"fig1_sps_max_c0_{c0}.csv").read_bytes() for c0 in ("0.5", "1", "2")]
        assert len(set(traces)) == 3
        assert len((tmp_path / "sweep_summary.csv").read_text().splitlines()) == 4

    def test_colliding_labels_exit_2_before_any_work(self, tmp_path, capsys):
        # 1 and 1.0 give the same label, fig1_decsps_c0_1
        rc = run_cli("sweep", "--problem", "fig1", "--n", "10", "--d", "3",
                     "--optimizer", "decsps", "--sweep-param", "c0", "--sweep-values", "1,1.0",
                     "--iters", "50", "--seeds", "1,2", "--out", str(tmp_path / "out"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'fig1_decsps_c0_1'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("optimizer,param,message", [
        ("decsps", "eta", "optimizer decsps does not read eta; sweep one of c0, gamma_b"),
        ("sgd_constant", "gamma_b",
         "optimizer sgd_constant does not read gamma_b; sweep one of eta"),
        ("adam", "b0", "optimizer adam does not read b0; sweep one of eta, beta2"),
    ])
    def test_param_the_optimizer_does_not_read_exits_2(self, tmp_path, capsys, optimizer,
                                                        param, message):
        # every config would run the same rule on the same settings
        rc = run_cli("sweep", "--problem", "counterexample", "--optimizer", optimizer,
                     "--sweep-param", param, "--sweep-values", "0.1,1,10", "--iters", "3",
                     "--seeds", "1", "--out", str(tmp_path / "out"))
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
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

    def test_bad_value_exits_2_before_the_dataset_is_read(self, tmp_path, capsys,
                                                          no_dataset_read):
        rc = run_cli("sweep", "--problem", "dataset", "--dataset", "absent.svm", "--iters", "3",
                     "--sweep-param", "c0", "--sweep-values", "1,-1",
                     "--out", str(tmp_path / "out"))
        assert rc == 2
        assert capsys.readouterr().err == "error: c0 must be positive, got -1.0\n"
        assert not (tmp_path / "out").exists()

    def test_out_file_exits_2_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("kept")
        rc = run_cli("sweep", "--problem", "counterexample", "--iters", "3", "--seeds", "1",
                     "--sweep-param", "c0", "--sweep-values", "0.5,1", "--out", str(out))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "is not a directory" in err
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("flags,rows", [((), 2), (("--sweep-values", "0.5,1,2"), 3)])
    def test_config_sets_the_required_flags(self, tmp_path, flags, rows):
        # the keys stand for --sweep-param and --sweep-values; a flag still wins
        cfg = tmp_path / "sw.json"
        cfg.write_text(json.dumps({"problem": "counterexample", "iters": 3, "seeds": 1,
                                   "sweep_param": "c0", "sweep_values": "0.5,1"}))
        rc = run_cli("sweep", "--config", str(cfg), *flags, "--out", str(tmp_path / "out"))
        assert rc == 0
        summary = (tmp_path / "out" / "sweep_summary.csv").read_text().splitlines()
        assert len(summary) == 1 + rows

    def test_config_without_a_required_flag_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sw.json"
        cfg.write_text(json.dumps({"problem": "counterexample", "sweep_param": "c0"}))
        rc = run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert rc == 2
        assert capsys.readouterr().err == "error: polystep sweep needs --sweep-values\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags,message", [
        (("--sweep-param", "c0"), "needs --sweep-values"),
        (("--sweep-values", "0.5,1"), "needs --sweep-param"),
        ((), "needs --sweep-param and --sweep-values"),
    ])
    def test_missing_required_flag_exits_2_with_one_line(self, tmp_path, capsys, flags, message):
        rc = run_cli("sweep", "--problem", "counterexample", "--iters", "3", "--seeds", "1",
                     *flags, "--out", str(tmp_path / "out"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not (tmp_path / "out").exists()

    def test_config_sweep_param_outside_its_choices_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sw.json"
        cfg.write_text(json.dumps({"problem": "counterexample", "sweep_param": "c_schedule",
                                   "sweep_values": "0.5"}))
        rc = run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: unknown sweep param 'c_schedule'; "
            "expected one of c0, gamma_b, gamma_ell, eta, b0, beta2\n")
        assert not (tmp_path / "out").exists()

    def test_config_sweep_values_that_are_no_string_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "sw.json"
        cfg.write_text(json.dumps({"problem": "counterexample", "sweep_param": "c0",
                                   "sweep_values": 0.5}))
        rc = run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'sweep_values' expects str" in err
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
    def test_nonpositive_tolerance_exits_2(self, capsys):
        rc = run_cli("reference", "--problem", "counterexample", "--reference-tol", "0")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "reference_tol must be > 0" in err

    def test_tolerance_checked_before_the_dataset_is_read(self, capsys, no_dataset_read):
        # as in polystep run, the tolerance is checked before the problem is built
        rc = run_cli("reference", "--problem", "dataset", "--dataset", "absent.svm",
                     "--reference-tol", "0")
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: reference_tol must be > 0 and finite, got 0.0\n"

    def test_infinite_tolerance_exits_2(self, tmp_path, capsys, monkeypatch):
        # it used to stop before the first Newton step and print x* = 0
        monkeypatch.chdir(tmp_path)
        rc = run_cli("reference", "--problem", "synthetic", "--n", "50", "--d", "3",
                     "--lambda", "0.1", "--reference-tol", "inf")
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "reference_tol must be > 0 and finite" in err
        assert not list(tmp_path.iterdir())

    def test_cached_reference(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = run_cli("reference", "--problem", "counterexample")
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(data["f_star"] - 2.0 / 3.0) <= 1e-12
        assert data["x_star"][0] == pytest.approx(1.0 / 3.0)
        assert not list(tmp_path.iterdir())

    def test_absent_features_unregularized(self, tmp_path, capsys):
        # features 2 and 4 occur in no row: their columns are zero, so the
        # unregularized Hessian is singular, and the solve leaves them at 0;
        # four points come with both labels, so a minimizer exists
        points = ["1:1 3:0.5 5:-1", "1:-0.7 3:1 5:0.4", "1:0.3 3:-0.2 5:-1.2", "1:0.6 3:0.9 5:1"]
        data = tmp_path / "gaps.svm"
        data.write_text("".join(f"{y} {p}\n" for p in points for y in (1, -1))
                        + "1 1:0.8 3:0.1 5:0.3\n-1 1:-0.4 3:0.7 5:-0.5\n1 1:0.2 3:-0.9 5:0.6\n")
        rc = run_cli("reference", "--problem", "dataset", "--dataset", str(data))
        out, err = capsys.readouterr()
        assert rc == 0, err
        ref = json.loads(out)
        assert ref["grad_norm"] <= ref["tol"]
        assert len(ref["x_star"]) == 5 and min(abs(ref["x_star"][j]) for j in (0, 2, 4)) > 0.1
        assert abs(ref["x_star"][1]) <= 1e-12 and abs(ref["x_star"][3]) <= 1e-12

    @pytest.mark.parametrize("argv", [
        ("reference", "--problem", "counterexample", "--iters", "5"),
        ("reference", "--problem", "counterexample", "--out", "-"),
        ("verify",),
    ])
    def test_flag_or_command_it_does_not_take_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_run_only_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "counterexample", "iters": 5}))
        rc = run_cli("reference", "--config", str(cfg))
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: unknown config key 'iters' for polystep reference\n"


def test_a_run_and_a_dataset_load_do_not_import_numpy_ma(tmp_path):
    # numpy.ma takes about 10 ms to import, inside the timed span of a cold
    # run; reading the run's trace back does not import it either
    data = tmp_path / "d.svm"
    data.write_text("1 1:0.5 2:1\n-1 1:-0.3 2:0.2\n")
    out = tmp_path / "out"
    code = "\n".join([
        "import sys, numpy",
        "if 'numpy.ma' in sys.modules:",
        "    sys.exit(3)  # numpy itself loads it here",
        "from polystep import data_io",
        "from polystep.cli import main",
        f"main(['run', '--problem', 'counterexample', '--iters', '20', '--seeds', '2',"
        f" '--out', {str(out)!r}])",
        f"data_io.load_libsvm({str(data)!r})",
        f"assert len(data_io.read_trace({str(out / 'counterexample_decsps.csv')!r})) == 40",
        "print('numpy.ma' in sys.modules)",
    ])
    src = str(Path(polystep.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    if proc.returncode == 3:
        pytest.skip("import numpy loads numpy.ma on this numpy")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
