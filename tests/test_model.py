import dataclasses
import json
import weakref

import numpy as np
import pytest

from dispersionlab import autograd as ag
from dispersionlab import model
from dispersionlab.errors import ConfigurationError, DimensionError
from dispersionlab.model import (
    ModelConfig,
    SyntheticTask,
    _attention_sublayer,
    _block_forward,
    _forward_traced,
    _trace_params,
    forward,
    init_params,
    load_checkpoint,
    make_dataset,
    parameter_count,
    patch_rows,
    parameter_shapes,
    receptive_field_grid,
    save_checkpoint,
    stage_grids,
    train_toy,
    zero_lepe,
)
from dispersionlab.rng import rng_for


class TestConfigAndShapes:
    def test_tiny_224_stage_grids(self):
        cfg = ModelConfig.tiny_224()
        assert stage_grids(cfg) == [56, 28, 14, 7]

    def test_tiny_224_parameter_count_band(self):
        count = parameter_count(ModelConfig.tiny_224())
        assert 18_000_000 <= count <= 34_000_000

    def test_toy_config_logit_shape(self):
        cfg = ModelConfig.toy(num_classes=5)
        params = init_params(cfg)
        images = rng_for(0, "imgs").standard_normal((2, 64, 64, 3))
        assert forward(cfg, params, images).shape == (2, 5)

    def test_indivisible_resolution_names_stage(self):
        with pytest.raises(ConfigurationError, match="stem"):
            ModelConfig.toy(image_size=30)

    @pytest.mark.parametrize("make", [ModelConfig.tiny_224, ModelConfig.toy,
                                      ModelConfig.ablation])
    def test_another_resolution_keeps_the_parameter_shapes(self, make):
        # so the same params serve images of another size
        cfg = make()
        other = dataclasses.replace(cfg, image_size=2 * cfg.image_size)
        assert stage_grids(other) == [2 * g for g in stage_grids(cfg)]
        assert parameter_shapes(other) == parameter_shapes(cfg)

    def test_head_divisibility_validated(self):
        with pytest.raises(ConfigurationError, match="divisible"):
            ModelConfig(stage_dims=(10,), stage_depths=(1,), stage_heads=(3,),
                        window=2, image_size=32)

    def test_zero_depth_counts_stem_and_head_only(self):
        # a block-less stage is rejected; outside its blocks a one-stage model
        # holds only the stem and the head
        with pytest.raises(ConfigurationError, match="stage_depths"):
            ModelConfig.ablation(stage_depths=(0,))
        cfg = ModelConfig.ablation(num_classes=3)
        shapes = {n: s for n, s in parameter_shapes(cfg).items() if not n.startswith("s0.")}
        assert all(name.startswith(("stem.", "head.")) for name in shapes)
        expected = (48 * 8 + 8) + (8 + 8) + (8 + 8) + (8 * 3 + 3)
        assert sum(int(np.prod(shape)) for shape in shapes.values()) == expected

    @pytest.mark.parametrize("field,value", [
        ("stage_dims", (0,)), ("stage_heads", (0,)), ("window", 0),
        ("window", -2), ("patch_size", 0), ("image_size", 0), ("num_classes", 0),
        ("mlp_ratio", 0.0), ("mlp_ratio", 1e-9), ("mlp_ratio", float("inf")),
        ("mlp_ratio", float("nan")), ("seed", -1),
        # wrong types, as --config JSON can give them
        ("stage_dims", (8.0,)), ("window", 2.0), ("image_size", 32.0), ("seed", True),
        ("averaging_enabled", "no"), ("averaging_enabled", 1), ("mlp_ratio", "4"),
        ("mlp_ratio", True)])
    def test_out_of_range_field_named(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ModelConfig.ablation(**{field: value})

    def test_one_unit_mlp_accepted(self):
        cfg = ModelConfig.ablation(mlp_ratio=0.07)  # round(8 * 0.07) = 1
        assert parameter_shapes(cfg)["s0.b0.mlp.w1"] == (8, 1)

    def test_doubling_dims_roughly_quadruples_block_params(self):
        small = ModelConfig(stage_dims=(16,), stage_depths=(1,), stage_heads=(1,),
                            window=2, patch_size=4, image_size=32)
        big = ModelConfig(stage_dims=(32,), stage_depths=(1,), stage_heads=(1,),
                          window=2, patch_size=4, image_size=32)

        def block_params(cfg):
            return sum(int(np.prod(s)) for n, s in parameter_shapes(cfg).items()
                       if n.startswith("s0.") and not n.endswith(".b")
                       and "norm" not in n and "lepe" not in n)

        ratio = block_params(big) / block_params(small)
        assert 3.8 <= ratio <= 4.2

    def test_config_json_round_trip(self):
        cfg = ModelConfig.toy(attention_variant="linear", averaging_enabled=False)
        assert ModelConfig.from_json(json.dumps(dataclasses.asdict(cfg))) == cfg


class TestForward:
    def test_deterministic_bitwise(self):
        cfg = ModelConfig.ablation()
        params = init_params(cfg)
        images = rng_for(1, "det").standard_normal((3, 32, 32, 3))
        a = forward(cfg, params, images).array
        b = forward(cfg, params, images).array
        assert np.array_equal(a, b)

    def test_averaging_toggle_shifts_attention_by_value_mean(self):
        cfg_on = ModelConfig.ablation(averaging_enabled=True)
        cfg_off = ModelConfig.ablation(averaging_enabled=False)
        params = init_params(cfg_on)
        g = stage_grids(cfg_on)[0]
        x = rng_for(2, "toggle").standard_normal((2 * g * g, 8))  # two samples' tokens

        def sublayer(cfg):
            tape = ag.Tape(record=False)
            return _attention_sublayer({name: ag.leaf(tape, value) for name, value in params.items()},
                                       ag.leaf(tape, x), cfg, 0, g, "s0.b0.")

        (att_on, _), (att_off, v) = sublayer(cfg_on), sublayer(cfg_off)
        v, n = v.value, g * g
        mix = np.concatenate([
            np.tile(v[s : s + n].mean(axis=0), (n, 1))
            for s in range(0, v.shape[0], n)
        ])
        rebuilt = att_off.value + mix
        assert np.array_equal(att_on.value, rebuilt)

    def test_attention_variants_run(self):
        images = rng_for(3, "variants").standard_normal((2, 32, 32, 3))
        for variant in ("window", "linear", "full"):
            cfg = ModelConfig.ablation(attention_variant=variant)
            out = forward(cfg, init_params(cfg), images).array
            assert out.shape == (2, 2) and np.isfinite(out).all()

    def test_empty_batch_names_images(self):
        cfg = ModelConfig.ablation()
        with pytest.raises(ConfigurationError, match=r"images .*\(0, 32, 32, 3\)"):
            forward(cfg, init_params(cfg), np.zeros((0, 32, 32, 3)))

    def test_multi_stage_multi_head_runs(self):
        cfg = ModelConfig(stage_dims=(8, 16), stage_depths=(1, 1), stage_heads=(1, 2),
                          window=2, patch_size=4, num_classes=4, image_size=32)
        images = rng_for(4, "ms").standard_normal((2, 32, 32, 3))
        out = forward(cfg, init_params(cfg), images).array
        assert out.shape == (2, 4) and np.isfinite(out).all()

    def test_checkpoint_round_trip(self, tmp_path):
        cfg = ModelConfig.ablation()
        params = init_params(cfg)
        stem = str(tmp_path / "ckpt")
        save_checkpoint(params, stem)
        back = load_checkpoint(stem)
        assert sorted(back) == sorted(params)
        for name in params:
            np.testing.assert_array_equal(back[name], params[name])

    def test_truncated_checkpoint_names_counts(self, tmp_path):
        params = init_params(ModelConfig.ablation())
        stem = str(tmp_path / "ckpt")
        _, bin_path = save_checkpoint(params, stem)
        total = sum(v.size for v in params.values())
        with open(bin_path, "r+b") as fh:
            fh.truncate((total - 5) * 8)
        with pytest.raises(DimensionError, match=f"holds {total - 5} .* need {total}"):
            load_checkpoint(stem)

    def test_flipped_byte_names_sha256(self, tmp_path):
        stem = str(tmp_path / "ckpt")
        _, bin_path = save_checkpoint(init_params(ModelConfig.ablation()), stem)
        with open(bin_path, "r+b") as fh:
            fh.seek(100)
            byte = fh.read(1)[0]
            fh.seek(100)
            fh.write(bytes([byte ^ 0x01]))
        with pytest.raises(DimensionError, match="sha256"):
            load_checkpoint(stem)

    def test_index_byte_count_checked(self, tmp_path):
        stem = str(tmp_path / "ckpt")
        idx_path, _ = save_checkpoint(init_params(ModelConfig.ablation()), stem)
        with open(idx_path) as fh:
            index = json.load(fh)
        index["bytes"] += 8
        with open(idx_path, "w") as fh:
            json.dump(index, fh)
        with pytest.raises(DimensionError, match="bytes="):
            load_checkpoint(stem)


def _per_head(op):
    """The blocked op applied head by head: cols -> op -> concat_cols."""
    def run(q, k, v, block, heads=1):
        hd = q.shape[1] // heads
        outs = [op(ag.cols(q, h * hd, (h + 1) * hd), ag.cols(k, h * hd, (h + 1) * hd),
                   ag.cols(v, h * hd, (h + 1) * hd), block) for h in range(heads)]
        return ag.concat_cols(outs) if heads > 1 else outs[0]
    return run


class TestHeadFolding:
    @pytest.mark.parametrize("variant", ["window", "full", "linear"])
    def test_toy_logits_match_per_head_path(self, variant, monkeypatch):
        cfg = ModelConfig.toy(attention_variant=variant)
        assert max(cfg.stage_heads) > 1
        params = init_params(cfg)
        images = rng_for(12, "heads").random((2, 64, 64, 3))
        folded = forward(cfg, params, images).array
        monkeypatch.setattr(ag, "blocked_softmax_attention",
                            _per_head(ag.blocked_softmax_attention))
        monkeypatch.setattr(ag, "blocked_linear_attention",
                            _per_head(ag.blocked_linear_attention))
        per_head = forward(cfg, params, images).array
        np.testing.assert_array_equal(folded, per_head)


class TestBlockGradient:
    @pytest.mark.parametrize("averaging", [True, False])
    def test_block_forward_gradcheck(self, averaging):
        # one model block differentiated as it runs: windowed rotary softmax over
        # two heads, the depthwise and mixing terms, the MLP
        cfg = ModelConfig.ablation(stage_heads=(2,), image_size=16, averaging_enabled=averaging)
        g = stage_grids(cfg)[0]
        rng = rng_for(23, "block-gradcheck")
        params = init_params(cfg)
        names = sorted(name for name in params if name.startswith("s0.b0."))
        params["s0.b0.lepe"] = rng.standard_normal(params["s0.b0.lepe"].shape)
        x = rng.standard_normal((g * g, 8))
        weights = np.arange(x.size, dtype=np.float64).reshape(x.shape) / x.size

        def f(a, *leaves):
            out = _block_forward(dict(zip(names, leaves)), a, cfg, 0, g, "s0.b0.")
            return ag.sum_all(ag.mul(out, ag.leaf(a.tape, weights)))

        report = ag.gradcheck(f, [x] + [params[name] for name in names])
        assert report.passed, dict(zip(["x"] + names, report.per_input))


def _full_row_forward(tape, tp, cfg, images):
    """The first-token forward with every block on all rows and the readout gather
    after the head norm."""
    b, grids = len(images), stage_grids(cfg)
    x = ag.constant(tape, patch_rows(cfg, images))
    x = ag.add(ag.matmul(x, tp["stem.w"]), tp["stem.b"])
    x = ag.layer_norm(x, tp["stem.norm.g"], tp["stem.norm.b"])
    for s, g in enumerate(grids):
        if s > 0:
            x = ag.group_rows(ag.tile_grid(x, grids[s - 1], 2), 4)
            x = ag.layer_norm(x, tp[f"down{s}.norm.g"], tp[f"down{s}.norm.b"])
            x = ag.matmul(x, tp[f"down{s}.w"])
        for i in range(cfg.stage_depths[s]):
            x = _block_forward(tp, x, cfg, s, g, f"s{s}.b{i}.")
    x = ag.layer_norm(x, tp["head.norm.g"], tp["head.norm.b"])
    x = ag.gather_rows(x, np.arange(b) * grids[-1] ** 2)
    return ag.add(ag.matmul(x, tp["head.w"]), tp["head.b"])


def _two_stage_config(**overrides):
    base = dict(stage_dims=(8, 16), stage_depths=(1, 2), stage_heads=(1, 2), window=2,
                patch_size=4, num_classes=3, image_size=32, head_mode="first_token")
    base.update(overrides)
    return ModelConfig(**base)


_READOUT_CASES = [pytest.param(make, variant, averaging, id=f"{name}-{variant}-{averaging}")
                  for name, make in (("single_block_config", ModelConfig.ablation),
                                     ("_two_stage_config", _two_stage_config))
                  for variant in ("window", "linear", "full") for averaging in (True, False)]


def _readout_case(make, variant, averaging, batch):
    cfg = make(attention_variant=variant, averaging_enabled=averaging)
    params = init_params(cfg, rng_for(31, "readout-params"))
    images = rng_for(31, "readout-images", batch).random((batch, 32, 32, 3))
    return cfg, params, images


def _logits(run, cfg, params, images):
    tape = ag.Tape(record=False)
    return run(tape, _trace_params(tape, params), cfg, images).value


def _leaf_grads(run, cfg, params, inputs):
    """Cross-entropy gradient of every parameter, for images or their patch_rows table."""
    batch = len(inputs) if inputs.ndim == 4 else len(inputs) // stage_grids(cfg)[0] ** 2
    labels = np.arange(batch) % cfg.num_classes
    tape = ag.Tape()
    tp = _trace_params(tape, params)
    grads = ag.backward(ag.cross_entropy(run(tape, tp, cfg, inputs), labels))
    return {name: grads[leaf.idx] for name, leaf in tp.items()}


_corner = model._corner  # taken before _full_attention_forward patches it


def _no_corner(cfg, g, rows):
    """_corner asked for no corner: the stem and every block keep all rows."""
    return _corner(cfg, g, 0)


def _full_attention_forward(tape, tp, cfg, images):
    """The first-token forward whose last block runs its attention sublayer on every
    row and gathers the readout rows from its output."""
    def sublayer(tp, x, cfg, stage, g, prefix, readout=False):
        att, v = _attention_sublayer(tp, x, cfg, stage, g, prefix)
        return (ag.gather_rows(att, np.arange(0, len(att.value), g * g)) if readout else att), v

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_attention_sublayer", sublayer)
        patch.setattr(model, "_corner", _no_corner)
        return _forward_traced(tape, tp, cfg, images)


def _stem_on_all_rows_forward(tape, tp, cfg, inputs):
    """The one-block first-token forward with the stem on every row, so that only
    the readout block takes each sample's corner (_attention_sublayer)."""
    g = stage_grids(cfg)[0]
    x = ag.constant(tape, patch_rows(cfg, inputs) if inputs.ndim == 4 else inputs)
    x = ag.add(ag.matmul(x, tp["stem.w"]), tp["stem.b"])
    x = ag.layer_norm(x, tp["stem.norm.g"], tp["stem.norm.b"])
    x = _block_forward(tp, x, cfg, 0, g, "s0.b0.", readout=True)
    x = ag.layer_norm(x, tp["head.norm.g"], tp["head.norm.b"])
    return ag.add(ag.matmul(x, tp["head.w"]), tp["head.b"])


# (config, corner side c, batches) for the corner rule: c is the least multiple
# of the window side >= 2, capped at the last grid side. At 64 images of the
# 16-wide two-head block numpy's BLAS blocks the long wq and wk gradient sums
# of the full-row attention differently, which moves their last bits.
_CORNER_CASES = [
    pytest.param(ModelConfig.ablation(), 2, (2, 3, 64), id="ablation"),
    pytest.param(ModelConfig.ablation(averaging_enabled=False), 2, (2, 3, 64),
                 id="ablation-off"),
    pytest.param(ModelConfig.ablation(window=1), 2, (2, 3, 64), id="window-1"),
    pytest.param(ModelConfig.ablation(window=3, image_size=36), 3, (2, 3, 64), id="window-3"),
    pytest.param(ModelConfig.ablation(window=4), 4, (2, 3, 64), id="window-4"),
    pytest.param(ModelConfig.ablation(window=8), 8, (2, 3, 64), id="window-is-grid"),
    pytest.param(_two_stage_config(), 2, (2, 3, 64), id="two-stage"),
    pytest.param(ModelConfig.ablation(stage_dims=(16,), stage_heads=(2,)), 2, (2, 3),
                 id="two-heads"),
]


class TestReadoutRows:
    """With head_mode="first_token" the last block's tail and the head run on the
    readout rows only; this must match the forward that computes every row."""

    @pytest.mark.parametrize("make,variant,averaging", _READOUT_CASES)
    def test_logits_equal_the_full_row_forward(self, make, variant, averaging):
        for batch in (2, 3, 64):
            cfg, params, images = _readout_case(make, variant, averaging, batch)
            np.testing.assert_array_equal(_logits(_forward_traced, cfg, params, images),
                                          _logits(_full_row_forward, cfg, params, images))
        # at batch 1 the readout matmuls are one-row products, which numpy may sum
        # in another order: a few ulps of the O(1) layer-normed terms, so the bound
        # is relative to max(1, |logit|)
        cfg, params, images = _readout_case(make, variant, averaging, 1)
        ref = _logits(_full_row_forward, cfg, params, images)
        np.testing.assert_allclose(_logits(_forward_traced, cfg, params, images), ref,
                                   rtol=0, atol=1e-15 * max(1.0, np.abs(ref).max()))

    @pytest.mark.parametrize("make,variant,averaging", _READOUT_CASES)
    def test_gradients_match_the_full_row_forward(self, make, variant, averaging):
        cfg, params, images = _readout_case(make, variant, averaging, 4)
        pruned = _leaf_grads(_forward_traced, cfg, params, images)
        ref = _leaf_grads(_full_row_forward, cfg, params, images)
        assert pruned.keys() == ref.keys()
        for name, g in ref.items():
            np.testing.assert_allclose(pruned[name], g, rtol=0, atol=1e-12 * np.abs(g).max(),
                                       err_msg=name)

    @pytest.mark.parametrize("head_mode", ["first_token", "gap"])
    def test_only_the_last_tail_is_pruned(self, head_mode):
        cfg = _two_stage_config(head_mode=head_mode)
        tape = ag.Tape()
        _forward_traced(tape, _trace_params(tape, init_params(cfg)), cfg,
                        rng_for(32, "readout-rows").random((3, 32, 32, 3)))
        rows = [node.value.shape[0] for node in tape.nodes if node.op == "gelu"]
        last = 3 if head_mode == "first_token" else 3 * 16
        assert rows == [3 * 64, 3 * 16, last]

    @pytest.mark.parametrize("cfg,c,batches", _CORNER_CASES)
    def test_last_block_mixes_tokens_on_the_corner_only(self, cfg, c, batches):
        b, g = 3, stage_grids(cfg)[-1]
        tape = ag.Tape()
        _forward_traced(tape, _trace_params(tape, init_params(cfg)), cfg,
                        rng_for(32, "corner").random((b, cfg.image_size, cfg.image_size, 3)))
        last = {node.op: node.value.shape[0] for node in tape.nodes}
        assert last["blocked_softmax_attention"] == last["depthwise_conv"] == b * c * c
        # y twice and v twice when the corner is smaller than the grid, or the
        # stem product once when averaging is off in a one-block model; the
        # readout rows of the attention and of the residual
        early = not cfg.averaging_enabled and cfg.stage_depths == (1,)
        gathers = sum(node.op == "gather_rows" for node in tape.nodes)
        assert gathers == ((1 if early else 4) if c < g else 0) + 2

    @pytest.mark.parametrize("cfg,c,batches", _CORNER_CASES)
    def test_corner_is_bitwise_the_full_row_attention(self, cfg, c, batches):
        params = init_params(cfg, rng_for(31, "corner-params"))
        for batch in batches:
            images = rng_for(31, "corner-images", batch).random(
                (batch, cfg.image_size, cfg.image_size, 3))
            np.testing.assert_array_equal(_logits(_forward_traced, cfg, params, images),
                                          _logits(_full_row_forward, cfg, params, images))
            corner = _leaf_grads(_forward_traced, cfg, params, images)
            ref = _leaf_grads(_full_attention_forward, cfg, params, images)
            assert corner.keys() == ref.keys()
            for name, g in ref.items():
                assert corner[name].tobytes() == g.tobytes(), (batch, name)

    @pytest.mark.parametrize("window,image_size,c", [(1, 32, 2), (2, 32, 2), (3, 36, 3),
                                                     (4, 32, 4)])
    @pytest.mark.parametrize("table", [False, True], ids=["images", "table"])
    def test_without_averaging_the_stem_runs_on_the_corner_bitwise(self, window, image_size,
                                                                   c, table):
        # the one-block model gathers each corner after the stem product; logits
        # and every leaf gradient are those of the stem on all rows, bit for bit
        cfg = ModelConfig.ablation(averaging_enabled=False, window=window,
                                   image_size=image_size)
        assert model._corner(cfg, stage_grids(cfg)[0], 1)[1] == c
        params = init_params(cfg, rng_for(37, "early-corner-params"))
        for batch in (1, 2, 3, 64):
            images = rng_for(37, "early-corner-images", batch).random(
                (batch, image_size, image_size, 3))
            inputs = patch_rows(cfg, images) if table else images
            assert (_logits(_forward_traced, cfg, params, inputs).tobytes()
                    == _logits(_stem_on_all_rows_forward, cfg, params, inputs).tobytes()), batch
            early = _leaf_grads(_forward_traced, cfg, params, inputs)
            ref = _leaf_grads(_stem_on_all_rows_forward, cfg, params, inputs)
            assert early.keys() == ref.keys()
            for name, g in ref.items():
                assert early[name].tobytes() == g.tobytes(), (batch, name)

    @pytest.mark.parametrize("window,image_size,c", [(1, 32, 2), (2, 32, 2), (3, 36, 3),
                                                     (4, 32, 4)])
    @pytest.mark.parametrize("table", [False, True], ids=["images", "table"])
    def test_without_averaging_inference_multiplies_the_corner_rows_only(
            self, window, image_size, c, table, monkeypatch):
        # forward keeps no history, so the stem gathers the corners from its table
        # before the product; the logits stay those of the stem on all rows
        cfg = ModelConfig.ablation(averaging_enabled=False, window=window,
                                   image_size=image_size)
        params = init_params(cfg, rng_for(37, "early-corner-params"))
        matmul, stem_rows = ag.matmul, []

        def record_matmul(a, b):
            if b.value is params["stem.w"]:
                stem_rows.append(a.value.shape[0])
            return matmul(a, b)

        for batch in (1, 2, 3, 64):
            images = rng_for(37, "early-corner-images", batch).random(
                (batch, image_size, image_size, 3))
            inputs = patch_rows(cfg, images) if table else images
            ref = _logits(_stem_on_all_rows_forward, cfg, params, inputs)
            with monkeypatch.context() as patch:
                patch.setattr(ag, "matmul", record_matmul)
                assert forward(cfg, params, inputs).array.tobytes() == ref.tobytes(), batch
            assert stem_rows.pop() == batch * c * c and not stem_rows, batch

    @pytest.mark.parametrize("averaging", [True, False])
    @pytest.mark.parametrize("table", [False, True], ids=["images", "table"])
    def test_without_averaging_the_stem_and_block_hold_corner_rows(self, averaging, table):
        cfg = ModelConfig.ablation(averaging_enabled=averaging)
        b, g, c = 3, 8, 2
        images = rng_for(32, "early-corner-rows").random((b, 32, 32, 3))
        tape = ag.Tape()
        tp = _trace_params(tape, init_params(cfg))
        _forward_traced(tape, tp, cfg, patch_rows(cfg, images) if table else images)
        rows = [node.value.shape[0] for node in tape.nodes]
        ops = [node.op for node in tape.nodes]
        stem = ops.index("matmul")
        assert tape.nodes[stem].parents[1] == tp["stem.w"].idx and rows[stem] == b * g * g
        bias, readout = stem + 1 + (not averaging), ops.index("gather_rows", stem + 2)
        assert tape.nodes[bias].op == "add" and tape.nodes[bias].parents[1] == tp["stem.b"].idx
        assert ops[bias + 1 : bias + 3] == ["layer_norm", "layer_norm"]  # stem norm, norm1
        wv = next(i for i, node in enumerate(tape.nodes)
                  if node.op == "matmul" and node.parents[1] == tp["s0.b0.wv"].idx)
        if averaging:  # the stem, norm1 and v on every row; q, k and LePE on the corner
            assert rows[bias] == rows[bias + 1] == rows[bias + 2] == rows[wv] == b * g * g
            assert rows[ops.index("depthwise_conv")] == b * c * c
        else:  # every node from the bias add to the first readout gather
            assert ops[stem + 1] == "gather_rows" and readout > wv
            assert set(rows[bias:readout]) == {b * c * c}

    @pytest.mark.parametrize("head_mode", ["first_token", "gap"])
    def test_the_value_mean_is_one_row_per_sample(self, head_mode):
        # no b * g * g-row mean on the tape, and no gather reads a mean
        cfg = _two_stage_config(head_mode=head_mode)
        tape = ag.Tape()
        _forward_traced(tape, _trace_params(tape, init_params(cfg)), cfg,
                        rng_for(32, "mean-rows").random((3, 32, 32, 3)))
        means = [i for i, node in enumerate(tape.nodes) if node.op == "blocked_mean_broadcast"]
        assert len(means) == 3 + (head_mode == "gap")
        assert all(tape.nodes[i].value.shape[0] == 3 for i in means)
        assert not any(node.op == "gather_rows" and node.parents[0] in means
                       for node in tape.nodes)

    @pytest.mark.parametrize("make,pushed", [(ModelConfig.tiny_224, 739),
                                             (lambda: ModelConfig.ablation(head_mode="gap"), 55)])
    def test_without_readout_rows_the_pushed_ops_stay(self, make, pushed):
        # the counts of the forward before the corner rule, less the gap head's
        # gather of the mean rows and with the stem's table one constant in place
        # of the image leaf and its two tilings; zero parameters as broadcast
        # views keep tiny_224's 28M of them out of memory
        cfg = make()
        tape = ag.Tape(record=False)
        tp = _trace_params(tape, {name: np.broadcast_to(0.0, shape)
                                  for name, shape in parameter_shapes(cfg).items()})
        _forward_traced(tape, tp, cfg, np.zeros((1, cfg.image_size, cfg.image_size, 3)))
        assert tape.pushed == pushed

    def test_forward_gradcheck(self):
        # every parameter through the pruned tail, the gathers and the full-row
        # attention; a weighted logit sum, as in the block gradcheck
        cfg = ModelConfig.ablation(image_size=16)
        params = init_params(cfg, rng_for(33, "readout-gradcheck"))
        names = sorted(params)
        images = rng_for(33, "readout-gradcheck-images").random((4, 16, 16, 3))
        weights = np.arange(8.0).reshape(4, 2) / 8 - 0.3

        def f(*leaves):
            logits = _forward_traced(leaves[0].tape, dict(zip(names, leaves)), cfg, images)
            return ag.sum_all(ag.mul(logits, ag.leaf(logits.tape, weights)))

        report = ag.gradcheck(f, [params[name] for name in names])
        assert report.passed, dict(zip(names, report.per_input))


def _on_tape_rows(images, patch):
    """The stem's patch rows as the tape cuts them from (b, S, S, 3) images."""
    tape = ag.Tape(record=False)
    x = ag.leaf(tape, images.reshape(-1, 3))
    return ag.group_rows(ag.tile_grid(x, images.shape[1], patch), patch * patch).value


_TABLE_CONFIGS = [pytest.param(ModelConfig.ablation, id="ablation"),
                  pytest.param(_two_stage_config, id="two-stage"),
                  pytest.param(ModelConfig.toy, id="toy")]


class TestPatchRows:
    """forward and training take the stem's patch rows, cut once, in place of images."""

    @pytest.mark.parametrize("make,batch", [
        (ModelConfig.tiny_224, 1),
        (ModelConfig.ablation, 3),
        (lambda: ModelConfig.ablation(patch_size=2, image_size=16), 2),
        (lambda: ModelConfig.ablation(patch_size=3, image_size=24), 5),
        (lambda: ModelConfig.ablation(patch_size=8, image_size=16), 4),
        (lambda: ModelConfig.ablation(patch_size=1, image_size=12), 2),
    ])
    def test_equal_to_the_on_tape_tiling(self, make, batch):
        cfg = make()
        images = rng_for(34, "patch-rows", batch).random((batch, cfg.image_size,
                                                          cfg.image_size, 3))
        rows = patch_rows(cfg, images)
        want = _on_tape_rows(images, cfg.patch_size)
        g0 = stage_grids(cfg)[0]
        assert rows.shape == want.shape == (batch * g0 * g0, cfg.patch_size ** 2 * 3)
        assert rows.flags.c_contiguous and rows.tobytes() == want.tobytes()

    @pytest.mark.parametrize("make", _TABLE_CONFIGS)
    def test_forward_on_the_table_equals_forward_on_the_images(self, make):
        cfg = make()
        params = init_params(cfg, rng_for(35, "table-params"))
        for batch in (2, 3, 64):
            images = rng_for(35, "table-images", batch).random(
                (batch, cfg.image_size, cfg.image_size, 3))
            assert (forward(cfg, params, patch_rows(cfg, images)).array.tobytes()
                    == forward(cfg, params, images).array.tobytes())

    @pytest.mark.parametrize("make", _TABLE_CONFIGS)
    def test_a_step_on_the_table_has_the_image_step_gradients(self, make, monkeypatch):
        # the table forward cuts from the images, a constant, against the same
        # table pushed as a leaf: backward forms the leaf's gradient, and no
        # parameter gradient may move
        cfg = make()
        params = init_params(cfg, rng_for(36, "table-step"))
        images = rng_for(36, "table-step-images").random((3, cfg.image_size, cfg.image_size, 3))
        skipped = []
        matmul = ag.ADJOINTS["matmul"]

        def record(node, g, vals):
            out = matmul(node, g, vals)
            skipped.append(out[0] is None)
            return out

        monkeypatch.setitem(ag.ADJOINTS, "matmul", record)
        with monkeypatch.context() as patch:
            patch.setattr(ag, "constant", ag.leaf)
            from_leaf = _leaf_grads(_forward_traced, cfg, params, patch_rows(cfg, images))
        assert skipped and not any(skipped)  # the leaf's stem product forms g @ b.T
        skipped.clear()
        labels = np.arange(3) % cfg.num_classes
        tape = ag.Tape()
        tp = _trace_params(tape, params)
        grads = ag.backward(ag.cross_entropy(_forward_traced(tape, tp, cfg, images), labels))
        table = len(tp)  # pushed right after the parameters
        assert tape.nodes[table].op == "constant" and table not in grads
        assert set(grads) == {leaf.idx for leaf in tp.values()}
        # only the stem's matmul, the last one backward reaches, skips g @ b.T
        assert skipped.count(True) == 1 and skipped[-1]
        assert not any(node.op in ("tile_grid", "group_rows") for node in tape.nodes[:table + 2])
        for name, leaf in tp.items():
            assert grads[leaf.idx].tobytes() == from_leaf[name].tobytes(), name

    @pytest.mark.parametrize("make", _TABLE_CONFIGS)
    def test_the_cut_table_is_freed_after_the_stem_product(self, make, monkeypatch):
        # a tape that keeps no history holds the table only until the stem
        # product has read it; the stem norm, the first layer_norm, follows it
        cfg = make()
        tables, alive = [], []
        cut, norm = model.patch_rows, ag.layer_norm

        def record_cut(cfg, images):
            tables.append(weakref.ref(table := cut(cfg, images)))
            return table

        def record_norm(*args):
            alive.append(tables[0]() is not None)
            return norm(*args)

        monkeypatch.setattr(model, "patch_rows", record_cut)
        monkeypatch.setattr(ag, "layer_norm", record_norm)
        forward(cfg, init_params(cfg), np.ones((2, cfg.image_size, cfg.image_size, 3)))
        assert len(tables) == 1 and alive[0] is False

    @pytest.mark.parametrize("shape", [(64, 48, 1), (64,), (64, 47), (65, 48), (0, 48)])
    def test_bad_tables_are_one_line_errors(self, shape):
        # not 2-D, the wrong width, or a row count that is not b * 64 with b >= 1
        cfg = ModelConfig.ablation()
        with pytest.raises(ConfigurationError) as caught:
            forward(cfg, init_params(cfg), np.zeros(shape))
        assert str(caught.value) == ("input must be (b, H, W, 3) images or patch rows of shape "
                                     f"(b * 64, 48) with b >= 1, got {shape}")

    @pytest.mark.parametrize("size", [16, 33])
    def test_patch_rows_refuses_other_image_sizes(self, size):
        with pytest.raises(ConfigurationError, match="patch_rows.*32, 32"):
            patch_rows(ModelConfig.ablation(), np.zeros((2, size, size, 3)))

    @pytest.mark.parametrize("shape", [(2, 64, 64, 3), (2, 16, 16, 3), (2, 32, 16, 3),
                                       (2, 32, 32, 4)])
    def test_forward_refuses_other_images_naming_the_image_size(self, shape):
        # another size, a non-square image or another channel count (no image:
        # test_empty_batch_names_images): patch_rows' one check, which names
        # cfg.image_size
        cfg = ModelConfig.ablation()
        with pytest.raises(ConfigurationError) as caught:
            forward(cfg, init_params(cfg), np.zeros(shape))
        assert str(caught.value) == ("patch_rows: images must be (b, 32, 32, 3), "
                                     f"32 = cfg.image_size, with b >= 1, got {shape}")


class TestLossGradient:
    """The cross-entropy gradient of the whole model along seeded directions: the
    ablation config on the corner path, and a two-stage gap config, whose
    downsample reaches group_rows and whose second stage has two heads."""

    # the worst unmutated error is 6.4e-9 at seeds 1 and 2 (3.6e-9 at seeds
    # 3-10); scaling one output of any adjoint these models reach by 1 + 1e-4
    # errs by 1e-4 or more
    TOL = 1e-6

    @pytest.mark.parametrize("head_mode", ["first_token", "gap"])
    @pytest.mark.parametrize("averaging", [True, False])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_directional_check_of_the_loss(self, head_mode, averaging, seed):
        cfg = (ModelConfig.ablation(averaging_enabled=averaging) if head_mode == "first_token"
               else ModelConfig.ablation(stage_dims=(8, 16), stage_depths=(1, 1),
                                         stage_heads=(1, 2), head_mode="gap",
                                         averaging_enabled=averaging))
        params = init_params(cfg, rng_for(seed, "loss-check"))
        names = sorted(params)
        images = rng_for(seed, "loss-check-images").random((4, 32, 32, 3))
        labels = np.array([0, 1, 1, 0])

        def f(*leaves):
            logits = _forward_traced(leaves[0].tape, dict(zip(names, leaves)), cfg, images)
            return ag.cross_entropy(logits, labels)

        report = ag.directional_check(f, [params[name] for name in names])
        assert report.max_rel_err < self.TOL, dict(zip(names, report.per_input))


class TestReceptiveField:
    def test_diagonal_always_nonzero(self):
        cfg = ModelConfig.ablation(averaging_enabled=False)
        params = zero_lepe(init_params(cfg))
        assert receptive_field_grid(cfg, params, 5)[5] > 0

    def test_averaging_connects_everything(self):
        cfg = ModelConfig.ablation(averaging_enabled=True)
        params = init_params(cfg)
        grid = receptive_field_grid(cfg, params, 9)
        assert (grid > 0).all()

    def test_cross_window_zero_without_averaging_and_lepe(self):
        cfg = ModelConfig.ablation(averaging_enabled=False)
        params = zero_lepe(init_params(cfg))
        grid = receptive_field_grid(cfg, params, 0).reshape(8, 8)
        window = np.zeros((8, 8), dtype=bool)
        window[:2, :2] = True
        assert (grid[window] > 0).all()
        assert (grid[~window] == 0).all()

    def test_lepe_extends_one_ring_beyond_window(self):
        cfg = ModelConfig.ablation(averaging_enabled=False)
        params = init_params(cfg)  # lepe active
        # token (1,1): window is rows/cols 0..1, its 3x3 ring reaches index 2
        grid = receptive_field_grid(cfg, params, 9).reshape(8, 8)
        assert grid[0, 2] > 0 and grid[2, 0] > 0 and grid[2, 2] > 0
        assert grid[0, 3] == 0 and grid[3, 3] == 0
        # the corner token's ring is clipped inside its own window
        corner = receptive_field_grid(cfg, params, 0).reshape(8, 8)
        assert corner[0, 2] == 0 and corner[2, 0] == 0


def _per_sample_dataset(task, patch_size, count, rng):
    """make_dataset with every image rastered in its own pass, its draws in the same order."""
    g, ct = task.grid_tokens, 2
    in_corner = np.zeros((g, g), dtype=bool)
    in_corner[:ct, :ct] = True
    corner, rest = np.flatnonzero(in_corner), np.flatnonzero(~in_corner)
    images = np.empty((count, g * patch_size, g * patch_size, 3))
    labels = np.empty(count, dtype=np.intp)
    for s in range(count):
        label = int(rng.integers(0, 2))
        margin = int(rng.integers(12, 29))
        cells = np.empty(g * g, dtype=np.intp)
        cells[corner] = rng.permutation(np.repeat([label, 1 - label], ct * ct // 2))
        rest_colors = np.full(rest.size, 1 - label, dtype=np.intp)
        rest_colors[: rest.size // 2 + margin] = label
        cells[rest] = rng.permutation(rest_colors)
        colors = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])[cells].reshape(g, g, 3)
        images[s] = np.repeat(np.repeat(colors, patch_size, axis=0), patch_size, axis=1)
        labels[s] = label
    return images, labels


class TestToyTask:
    @pytest.mark.parametrize("seed", [0, 13, 201])
    @pytest.mark.parametrize("grid,patch,count", [(8, 4, 256), (10, 3, 7), (8, 1, 1)])
    def test_dataset_equals_the_per_sample_raster(self, seed, grid, patch, count):
        task = SyntheticTask(grid)
        got = make_dataset(task, patch, count, rng_for(seed, "train"))
        want = _per_sample_dataset(task, patch, count, rng_for(seed, "train"))
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_corner_window_is_balanced(self):
        task = SyntheticTask()
        images, labels = make_dataset(task, 4, 16, rng_for(5, "ds"))
        for s in range(16):
            corner = images[s, :8, :8]  # 2x2 cells of 4x4 pixels each
            red = (corner[..., 0] > 0.5).sum()
            green = (corner[..., 1] > 0.5).sum()
            assert red == green

    def test_labels_match_global_majority(self):
        task = SyntheticTask()
        images, labels = make_dataset(task, 4, 16, rng_for(6, "ds2"))
        for s in range(16):
            cells = images[s, ::4, ::4]  # one pixel per cell
            red = (cells[..., 0] > 0.5).sum()
            green = (cells[..., 1] > 0.5).sum()
            majority = 0 if red > green else 1
            assert labels[s] == majority

    def test_zero_epochs_is_chance_level(self):
        cfg = ModelConfig.ablation()
        result = train_toy(cfg, SyntheticTask(), epochs=0, seed=13)
        assert len(result.val_acc) == 1
        assert 0.3 <= result.val_acc[0] <= 0.7

    def test_short_training_reduces_loss(self):
        cfg = ModelConfig.ablation()
        result = train_toy(cfg, SyntheticTask(), epochs=4, seed=13)
        assert result.loss[-1] < 0.72  # below-chance cross entropy after 4 epochs
        assert len(result.val_acc) == 5

    def test_negative_epochs_rejected(self):
        with pytest.raises(ConfigurationError):
            train_toy(ModelConfig.ablation(), SyntheticTask(), epochs=-3, seed=13)

    def test_mismatched_task_rejected(self):
        cfg = ModelConfig.ablation(num_classes=3)
        with pytest.raises(ConfigurationError):
            train_toy(cfg, SyntheticTask(), epochs=1, seed=0)
