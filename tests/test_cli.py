import json
import os

import pytest

from dispersionlab.cli import main
from dispersionlab.model import ModelConfig


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

    def test_ssm_check_perturbed_fails_scientifically(self):
        assert main(["ssm-check", "--instances", "2", "--perturb"]) == 2

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

    def test_ssm_check_zero_instances_is_usage_error(self, capsys):
        # zero instances would pass the equivalence check vacuously
        self.assert_usage_error(["ssm-check", "--instances", "0"], capsys, "--instances")

    @pytest.mark.parametrize("bound", ["-1", "0"])
    def test_disperse_non_positive_logit_bound_is_usage_error(self, bound, tmp_path, capsys):
        # -1 used to end in a math domain error; 0 passed with every logit at 0
        self.assert_usage_error(["disperse", "--variant", "softmax", "--logit-bound", bound,
                                 "--out", str(tmp_path)], capsys, "--logit-bound")

    def test_train_toy_negative_epochs_is_usage_error(self, tmp_path, capsys):
        # negative epochs used to exit 0 without training
        self.assert_usage_error(["train-toy", "--epochs", "-3", "--out", str(tmp_path)],
                                capsys, "--epochs")

    @pytest.mark.parametrize("flag,value", [("--step", "0"), ("--tol", "0"),
                                            ("--tol", "-1e-5"), ("--tol", "nan")])
    def test_gradcheck_non_positive_step_or_tol_is_usage_error(self, flag, value, capsys):
        # a zero step made every finite difference 0 / 0 and still printed pass
        self.assert_usage_error(["gradcheck", flag, value], capsys, flag)

    def test_gradcheck_all_variants(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        for variant in ("softmax", "linear", "focused", "window", "sema", "mila"):
            assert variant in out
        assert "FAIL" not in out


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

    def test_window_fixed_content_slope_zero(self, tmp_path):
        out = str(tmp_path / "win")
        code = main(["disperse", "--variant", "window", "--w", "4",
                     "--fixed-window-content", "--n", "8,16,32",
                     "--trials", "2", "--d", "4", "--out", out])
        assert code == 0
        summary = json.loads(read(os.path.join(out, "summary.json")))
        assert summary["slope"] == 0.0

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
        ma.pop("timestamp"), mb.pop("timestamp")
        ma["config"].pop("out"), mb["config"].pop("out")
        assert ma == mb


class TestBench:
    def test_small_bench_with_counter_check(self, tmp_path):
        out = str(tmp_path / "bench")
        code = main(["bench", "--variants", "sema,full", "--n", "64,128,256",
                     "--d", "8", "--w", "4", "--repeats", "1", "--out", out])
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
        cfg = ModelConfig(stage_dims=(8,), stage_depths=(1,), stage_heads=(1,),
                          window=2, patch_size=4, num_classes=2, image_size=32,
                          head_mode="first_token", averaging_enabled=True)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
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
