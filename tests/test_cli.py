import dataclasses
import json
import os
import shlex

import pytest

from dispersionlab import analysis
from dispersionlab.cli import blas_environment, main
from dispersionlab.model import ModelConfig
from dispersionlab.tensor import Tensor


def read(path):
    with open(path) as fh:
        return fh.read()


class TestExitCodes:
    def test_unknown_variant_is_usage_error(self, capsys):
        code = main(["disperse", "--variant", "nope", "--out", "/tmp/unused"])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_ssm_check_passes(self, capsys):
        assert main(["ssm-check", "--instances", "5"]) == 0
        assert "max abs diff" in capsys.readouterr().out

    def test_ssm_check_perturbed_fails_scientifically(self, monkeypatch):
        from dispersionlab import ssm

        original = ssm.mamba_as_attention
        monkeypatch.setattr(ssm, "mamba_as_attention",
                            lambda p, x: Tensor(original(p, x).array + 1e-9))
        assert main(["ssm-check", "--instances", "2"]) == 2

    def assert_usage_error(self, argv, capsys, flag):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err.splitlines()[0]
        assert "Traceback" not in err

    def test_disperse_non_integer_n_is_usage_error(self, tmp_path, capsys):
        self.assert_usage_error(["disperse", "--variant", "softmax", "--n", "abc",
                                 "--out", str(tmp_path)], capsys, "'abc'")

    def test_disperse_zero_trials_is_usage_error(self, tmp_path, capsys):
        self.assert_usage_error(["disperse", "--variant", "softmax", "--trials", "0",
                                 "--out", str(tmp_path)], capsys, "--trials")

    def test_disperse_zero_window_is_usage_error(self, tmp_path, capsys):
        self.assert_usage_error(["disperse", "--variant", "window", "--w", "0",
                                 "--out", str(tmp_path)], capsys, "--w")

    def test_bench_single_n_is_usage_error(self, tmp_path, capsys):
        # one point cannot fit a time exponent
        self.assert_usage_error(["bench", "--n", "64", "--out", str(tmp_path)],
                                capsys, "at least 3")

    @pytest.mark.parametrize("variant,w,n", [("window", "3", "9,18,36"),
                                             ("sema", "128", "128,256,512"),
                                             ("window", "8", "64,100,128")])
    def test_bench_window_not_dividing_n_is_usage_error(self, variant, w, n, tmp_path, capsys):
        # the first two timed every n, then the counter check at n = 64 ended in a traceback
        out = tmp_path / "bench"
        self.assert_usage_error(["bench", "--variants", variant, "--w", w, "--n", n,
                                 "--out", str(out)], capsys, f"--w {w}")
        assert not out.exists()

    @pytest.mark.parametrize("variants,flag", [("sema,sema", "--variants"),
                                               ("full,window,full", "--variants"),
                                               ("mix", "'mix'")])
    def test_bench_repeated_or_unknown_variant_is_usage_error(self, variants, flag, tmp_path,
                                                              capsys):
        # sema,sema printed two exponent lines and six CSV rows, and summary.json kept one;
        # mix was bench's name for homogeneous_mix
        out = tmp_path / "bench"
        self.assert_usage_error(["bench", "--variants", variants, "--n", "64,128,256",
                                 "--out", str(out)], capsys, flag)
        assert not out.exists()

    @pytest.mark.parametrize("variants,flag", [("softmax,softmax", "--variants"),
                                               ("", "''"),
                                               ("sema,nope", "'nope'")])
    def test_gradcheck_repeated_empty_or_unknown_variant_is_usage_error(self, variants, flag,
                                                                        tmp_path, capsys):
        # softmax,softmax printed two lines and exited 0; "" ran all six variants
        out = tmp_path / "gradcheck"
        self.assert_usage_error(["gradcheck", "--variants", variants, "--out", str(out)],
                                capsys, flag)
        assert not out.exists()

    def test_failed_run_removes_every_level_of_out_it_made(self, tmp_path, capsys):
        # only the last level went, leaving an empty tmp_path/new behind
        existing = tmp_path / "t"
        existing.mkdir()
        assert main(["bench", "--variants", "window", "--w", "3", "--n", "9,18,36",
                     "--out", str(existing / "new" / "deep")]) == 1
        assert os.listdir(tmp_path) == ["t"] and os.listdir(existing) == []

    def test_failed_run_keeps_an_empty_directory_it_did_not_make(self, tmp_path,
                                                                 monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # --out "" resolves to the empty working directory
        assert main(["disperse", "--variant", "softmax", "--out", ""]) == 1
        assert tmp_path.is_dir()

    def test_disperse_window_not_dividing_n_is_one_error_line(self, tmp_path, capsys,
                                                              monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("dispersionlab.cli.measure_dispersion", no_sweep)
        out = tmp_path / "disperse"
        assert main(["disperse", "--variant", "window", "--w", "3", "--n", "8,16,32",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: window 3 does not divide n=8"]
        assert not out.exists()

    def test_ssm_check_zero_instances_is_usage_error(self, capsys):
        # zero instances would pass the equivalence check vacuously
        self.assert_usage_error(["ssm-check", "--instances", "0"], capsys, "--instances")

    def test_disperse_ignores_the_old_thread_variable(self, monkeypatch, tmp_path, capsys):
        # the sweep has one schedule, so a value the removed worker count refused is inert
        argv = ["disperse", "--variant", "softmax", "--n", "8,16,32", "--trials", "3"]
        monkeypatch.delenv("DISPERSION_LAB_THREADS", raising=False)
        assert main([*argv, "--out", str(tmp_path / "unset")]) == 0
        monkeypatch.setenv("DISPERSION_LAB_THREADS", "abc")
        assert main([*argv, "--out", str(tmp_path / "abc")]) == 0
        assert capsys.readouterr().err == ""
        for name in ("report.csv", "report.json", "summary.json"):
            assert read(tmp_path / "abc" / name) == read(tmp_path / "unset" / name)

    @pytest.mark.parametrize("bound", ["-1", "0"])
    def test_disperse_non_positive_logit_bound_is_usage_error(self, bound, tmp_path, capsys):
        # -1 used to end in a math domain error; 0 passed with every logit at 0
        self.assert_usage_error(["disperse", "--variant", "softmax", "--logit-bound", bound,
                                 "--out", str(tmp_path)], capsys, "--logit-bound")

    def test_train_toy_negative_epochs_is_usage_error(self, tmp_path, capsys):
        # negative epochs used to exit 0 without training
        self.assert_usage_error(["train-toy", "--epochs", "-3", "--out", str(tmp_path)],
                                capsys, "--epochs")

    @pytest.mark.parametrize("kernel", ['[1, 2]', '"softmax"', '{"theta": "x"}',
                                        '{"phi_p": null}', '{"psi_p": true}',
                                        '{"epsilon": false}'])
    def test_disperse_malformed_kernel_is_usage_error(self, kernel, tmp_path, capsys):
        # a non-object used to end in an AttributeError, a mistyped field in a
        # TypeError; a JSON boolean ran as the number 1 or 0
        self.assert_usage_error(["disperse", "--variant", "softmax", "--kernel", kernel,
                                 "--out", str(tmp_path)], capsys, "--kernel")

    @pytest.mark.parametrize("kernel,flag", [
        ('{"phi":"exp_temperature","theta":NaN}', "--kernel"),
        ('{"epsilon":NaN}', "--kernel"),
        ('{"phi":"exp_temperature","thta":0.01}', "'thta'"),
    ])
    def test_disperse_non_finite_or_unknown_kernel_field_is_usage_error(self, kernel, flag,
                                                                        tmp_path, capsys):
        # NaN passed every "< bound" check and an unknown key was dropped; both
        # ran a sweep that reported all coefficients inside bounds
        self.assert_usage_error(["disperse", "--variant", "softmax", "--kernel", kernel,
                                 "--n", "4,8,16", "--trials", "1", "--out", str(tmp_path)],
                                capsys, flag)

    @pytest.mark.parametrize("variant,kernel", [
        ("softmax", '{"phi":"exp_temperature","theta":1e-300}'),
        ("softmax", '{"phi":"power","phi_p":1e6,"psi":"elu_plus_one"}'),
    ])
    def test_disperse_overflowing_kernel_names_the_cell(self, variant, kernel, tmp_path, capsys):
        # these ended in a BoundSpec or DispersionReport traceback
        assert main(["disperse", "--variant", variant, "--kernel", kernel, "--n", "4,8,16",
                     "--trials", "1", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "inside bounds" not in captured.out
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {variant}: phi overflows or underflows")
        assert "n=4, trial=0, seed=42" in err[0]

    @pytest.mark.parametrize("argv", [
        ["--variant", "softmax", "--logit-bound", "600"],
        ["--variant", "softmax", "--logit-bound", "700"],
        ["--variant", "softmax", "--logit-bound", "800"],
        ["--variant", "linear", "--d", "64", "--logit-bound", "1e308"],
        ["--variant", "window", "--w", "8", "--logit-bound", "800"],
    ])
    def test_disperse_underflowing_lower_bound_names_the_cell(self, argv, tmp_path, capsys):
        # softmax and linear ended in a DispersionReport traceback; window exited
        # 0 with lower bounds of 0.0, which contain every coefficient
        out = tmp_path / "run"
        assert main(["disperse", *argv, "--n", "64,128,256", "--trials", "2",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "inside bounds" not in captured.out
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"error: {argv[1]}: the lower bound or the smallest coefficient underflows")
        assert err[0].endswith("seed=42") and "trial=" in err[0] and not out.exists()

    @pytest.mark.parametrize("kernel", ['{"phi":"exp"}',
                                        '{"phi":"power","phi_p":3,"psi":"elu_plus_one"}',
                                        '{"phi":"power","phi_p":1e6,"psi":"elu_plus_one"}',
                                        '{"phi":"identity","psi":"elu_plus_one","epsilon":1000}',
                                        '{"phi":"identity","psi":"focused"}'],
                             ids=["exp", "power-3", "power-1e6", "epsilon-1000", "focused"])
    def test_disperse_mila_needs_identity_phi(self, kernel, tmp_path, capsys):
        # the MILA cell ignored phi but took its bounds from it: exp exited 2 with
        # a bound violation, the cubed phi exited 0 on bounds too wide to fail;
        # epsilon 1000 exited 0 unread, and focused features exited 1 on a
        # misleading phi(a) = 0 overflow line
        assert main(["disperse", "--variant", "mila", "--kernel", kernel, "--n", "4,8,16",
                     "--trials", "1", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "inside bounds" not in captured.out
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: mila normalizes its logits")

    _CONFIG = ('{"stage_dims": [8], "stage_depths": [1], "stage_heads": [1], "window": 2, '
               '"image_size": 32, "num_classes": 2')

    def test_train_toy_grid_too_small_for_the_task_names_the_grid(self, tmp_path, capsys):
        # the error named margin fields that no flag or config sets
        path = tmp_path / "config.json"
        path.write_text(self._CONFIG.replace('"image_size": 32', '"image_size": 16')
                        + ', "patch_size": 4}')
        assert main(["train-toy", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: the majority task needs a token grid")
        assert "got 4 x 4" in err[0]

    @pytest.mark.parametrize("command", ["train-toy", "probe-rf"])
    @pytest.mark.parametrize("content", [
        None, "{nope", '{"bogus": 1}',
        '{"stage_dims": [8], "stage_depths": [0], "stage_heads": [1], "window": 2, '
        '"image_size": 32}',
        _CONFIG.replace("[8]", "[8.0]") + "}",
        _CONFIG + ', "averaging_enabled": "no"}',
    ], ids=["missing", "not-json", "unknown-key", "zero-depth", "float-dim", "string-flag"])
    def test_malformed_config_is_usage_error(self, command, content, tmp_path, capsys):
        # a zero depth used to end in a KeyError traceback (probe-rf) or train a
        # block-less model (train-toy); a float dim ended in a TypeError traceback,
        # and "no" is a truthy string, so averaging ran on
        path = tmp_path / "config.json"
        if content is not None:
            path.write_text(content)
        self.assert_usage_error([command, "--config", str(path), "--out", str(tmp_path / "out")],
                                capsys, "--config")

    @pytest.mark.parametrize("command", ["train-toy", "probe-rf"])
    def test_unallocatable_config_is_one_error_line(self, command, tmp_path, capsys):
        # numpy refuses this MLP width before allocating; it used to end in a
        # ValueError traceback from init_params
        path = tmp_path / "config.json"
        path.write_text(self._CONFIG + ', "mlp_ratio": 1e300}')
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot allocate parameter s0.b0.mlp.w1")

    @pytest.mark.parametrize("command", [["disperse", "--variant", "softmax"], ["ssm-check"],
                                         ["gradcheck"], ["bench"], ["train-toy"]],
                             ids=lambda command: command[0])
    def test_negative_seed_is_usage_error(self, command, tmp_path, capsys):
        # -1 used to end in a ValueError traceback from the seeded generator
        self.assert_usage_error([*command, "--seed", "-1", "--out", str(tmp_path)],
                                capsys, "--seed")

    def test_gradcheck_all_variants(self, tmp_path, capsys):
        assert main(["gradcheck", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for variant in ("softmax", "linear", "focused", "window", "sema", "mila"):
            assert variant in out
        assert "FAIL" not in out
        # each row's passed flag was a numpy bool, so --out ended in a TypeError from json
        rows = json.loads(read(tmp_path / "gradcheck.json"))
        assert len(rows) == 6 and all(row["passed"] is True for row in rows)
        assert json.loads(read(tmp_path / "manifest.json"))["outputs"] == ["gradcheck.json"]

    @pytest.mark.parametrize("command", [["disperse", "--variant", "softmax"], ["ssm-check"],
                                         ["train-toy"]], ids=lambda command: command[0])
    def test_unusable_out_is_one_error_line(self, command, tmp_path, capsys):
        # a path under a regular file ended in a NotADirectoryError traceback,
        # after the whole computation for ssm-check and train-toy
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main([*command, "--out", str(blocker / "x")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot use --out '{blocker}/x'")


class TestDisperse:
    def test_writes_report_and_manifest(self, tmp_path):
        out = str(tmp_path / "run")
        code = main(["disperse", "--variant", "softmax", "--n", "8,16,32",
                     "--trials", "2", "--d", "4", "--out", out])
        assert code == 0
        assert sorted(os.listdir(out)) == ["manifest.json", "report.csv",
                                           "report.json", "summary.json"]
        summary = json.loads(read(os.path.join(out, "summary.json")))
        assert summary["bounds_contained"] is True
        manifest = json.loads(read(os.path.join(out, "manifest.json")))
        assert manifest["subcommand"] == "disperse"
        assert manifest["seed"] == 42

    def test_manifest_records_numpy_and_thread_settings(self, tmp_path, monkeypatch):
        import resource

        import numpy as np

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("DISPERSION_LAB_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = str(tmp_path / "run")
        assert main(["disperse", "--variant", "softmax", "--n", "8,16,32", "--trials", "2",
                     "--d", "4", "--out", out]) == 0
        manifest = json.loads(read(os.path.join(out, "manifest.json")))
        assert manifest["numpy_version"] == np.__version__
        assert manifest["threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                                       "MKL_NUM_THREADS": None}
        # read when the manifest was written: positive, and no more than now
        after = resource.getrusage(resource.RUSAGE_SELF)
        usage = manifest["resources"]
        assert 0 < usage["peak_rss_mb"] <= after.ru_maxrss / 1024.0
        assert 0 < usage["cpu_s"] <= after.ru_utime + after.ru_stime
        assert 0 < usage["minor_faults"] <= after.ru_minflt

    def test_manifest_records_the_blas_that_ran(self, tmp_path):
        import numpy as np

        out = str(tmp_path / "run")
        assert main(["disperse", "--variant", "softmax", "--n", "8,16,32", "--trials", "2",
                     "--d", "4", "--out", out]) == 0
        blas = json.loads(read(os.path.join(out, "manifest.json")))["blas"]
        assert blas == blas_environment()
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert blas["blas"] == f"{build['name']} {build['version']}"
        # the loaded library's string, or the build string marked as such
        assert blas["openblas configuration"] and blas["blas threads"]
        if blas["blas threads"] == "unknown":
            assert blas["openblas configuration"].endswith("(build)")

    def test_window_fixed_content_slope_zero(self, tmp_path):
        out = str(tmp_path / "win")
        code = main(["disperse", "--variant", "window", "--w", "4",
                     "--fixed-window-content", "--n", "8,16,32",
                     "--trials", "2", "--d", "4", "--out", out])
        assert code == 0
        summary = json.loads(read(os.path.join(out, "summary.json")))
        assert summary["slope"] == 0.0

    def test_bound_violation_prints_a_reproducing_command(self, monkeypatch, tmp_path,
                                                          capsys):
        # bounds shrunk to the uniform value: every non-uniform draw violates them
        monkeypatch.setattr(analysis, "coefficient_bounds",
                            lambda kernel, lo, hi, n, stabilizer: (1.0 / n, 1.0 / n))
        argv = ["disperse", "--variant", "softmax", "--n", "8,16,32", "--trials", "2",
                "--d", "4", "--seed", "9", "--kernel", '{"phi": "exp"}',
                "--out", str(tmp_path / "run")]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("bound violation: softmax:") and "seed=9" in err[0]
        prefix = "reproduce with: "
        assert err[1].startswith(prefix + "dispersion-lab disperse ")
        command = shlex.split(err[1][len(prefix):])
        summary = json.loads(read(str(tmp_path / "run" / "summary.json")))
        assert summary["reproduce"] == err[1][len(prefix):]
        assert main(command[1:]) == 2
        assert capsys.readouterr().err.splitlines() == err

    def test_reproducible_outputs_excluding_timestamp(self, tmp_path):
        args = ["disperse", "--variant", "linear", "--n", "8,16,32",
                "--trials", "2", "--d", "4"]
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out", out_a]) == 0
        assert main(args + ["--out", out_b]) == 0
        assert read(os.path.join(out_a, "report.csv")) == read(os.path.join(out_b, "report.csv"))
        assert read(os.path.join(out_a, "report.json")) == read(os.path.join(out_b, "report.json"))
        ma = json.loads(read(os.path.join(out_a, "manifest.json")))
        mb = json.loads(read(os.path.join(out_b, "manifest.json")))
        for key in ("timestamp", "resources"):  # measurements of the run, not outputs
            ma.pop(key), mb.pop(key)
        ma["config"].pop("out"), mb["config"].pop("out")
        assert ma == mb


class TestBench:
    def test_small_bench_with_counter_check(self, tmp_path):
        out = str(tmp_path / "bench")
        code = main(["bench", "--variants", "sema,full", "--n", "64,128,256",
                     "--d", "8", "--w", "4", "--out", out])
        assert code == 0
        lines = read(os.path.join(out, "bench.csv")).strip().splitlines()
        assert lines[0] == "variant,n,seconds,madds"
        assert len(lines) == 7
        summary = json.loads(read(os.path.join(out, "summary.json")))
        assert summary["counters_match"] is True
        assert set(summary["exponents"]) == {"sema", "full"}


class TestTrainToy:
    def test_writes_metrics_and_checkpoint(self, tmp_path):
        out = str(tmp_path / "train")
        code = main(["train-toy", "--epochs", "1", "--out", out])
        assert code == 0
        names = sorted(os.listdir(out))
        assert names == ["best.bin", "best.index.json", "manifest.json",
                         "metrics.csv", "summary.json"]
        lines = read(os.path.join(out, "metrics.csv")).strip().splitlines()
        assert lines[0] == "epoch,train_acc,val_acc,loss"
        assert len(lines) == 3  # epoch 0 snapshot + 1 trained epoch

    def test_config_file_round_trip(self, tmp_path):
        cfg = ModelConfig.ablation(averaging_enabled=True)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dataclasses.asdict(cfg)))
        out = str(tmp_path / "train")
        code = main(["train-toy", "--config", str(cfg_path), "--averaging", "off",
                     "--epochs", "1", "--out", out])
        assert code == 0
        summary = json.loads(read(os.path.join(out, "summary.json")))
        assert summary["averaging_enabled"] is False


class TestProbeRf:
    def test_zero_entries_outside_window_blocks(self, tmp_path):
        out = str(tmp_path / "rf")
        code = main(["probe-rf", "--averaging", "off", "--zero-lepe", "--out", out])
        assert code == 0
        rows = [line.split(",") for line in
                read(os.path.join(out, "receptive_field.csv")).strip().splitlines()]
        heat = [[float(v) for v in row] for row in rows]
        for r in range(8):
            for c in range(8):
                inside = r < 2 and c < 2
                assert (heat[r][c] > 0) == inside
        summary = json.loads(read(os.path.join(out, "summary.json")))
        assert summary["nonzero_fraction"] == pytest.approx(4 / 64)

    def test_averaging_on_reaches_everything(self, tmp_path):
        out = str(tmp_path / "rf-on")
        assert main(["probe-rf", "--averaging", "on", "--out", out]) == 0
        summary = json.loads(read(os.path.join(out, "summary.json")))
        assert summary["nonzero_fraction"] == 1.0
