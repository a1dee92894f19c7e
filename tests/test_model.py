import dataclasses
import json

import numpy as np
import pytest

from phrasealign import data, trainer
from phrasealign import losses as ls
from phrasealign import model as md
from phrasealign import numerics as nx
from phrasealign.numerics import Rng, Tensor
from phrasealign.textproc import MASK_ID, PAD_ID, TextPipeline


@pytest.fixture(scope="module")
def pipeline():
    return TextPipeline()


@pytest.fixture(scope="module")
def cfg(pipeline):
    c = md.ModelConfig(d=16, heads=2, n_cross_layers=3, bidiratt_layer=2,
                       proj_dim=8, patch_rows=4, patch_cols=4, patch_pixels=12,
                       vocab_size=len(pipeline.vocab))
    c.validate()
    return c


@pytest.fixture(scope="module")
def params(cfg):
    return md.init_params(cfg, Rng(0))


def random_patches(cfg, seed=0):
    return Rng(seed).uniform((cfg.n_patches, cfg.patch_pixels))


# ---------------------------------------------------------------------------
# init


def test_init_deterministic(cfg):
    a = md.init_params(cfg, Rng(3))
    b = md.init_params(cfg, Rng(3))
    assert list(a) == list(b)
    for ta, tb in zip(a.values(), b.values()):
        assert np.array_equal(ta.data, tb.data)


def test_init_finite_and_temperature(params):
    for t in params.values():
        assert np.all(np.isfinite(t.data))
    assert abs(np.exp(float(params["temp.log_tau"].data)) - 0.07) < 1e-12


def test_config_validation(pipeline):
    with pytest.raises(ValueError, match="divisible"):
        md.ModelConfig(d=30, heads=4, vocab_size=10).validate()
    with pytest.raises(ValueError, match="bidiratt_layer"):
        md.ModelConfig(bidiratt_layer=9, n_cross_layers=6, vocab_size=10).validate()
    for field, value in (("heads", 0), ("heads", -4), ("d", 0), ("proj_dim", 0),
                         ("ffn_mult", 0), ("max_text_len", 0), ("n_self_layers", -1)):
        with pytest.raises(ValueError, match=f"^{field} "):
            md.ModelConfig(vocab_size=10, **{field: value}).validate()


@pytest.mark.parametrize("field, value", [("n_cross_layers", 2.0), ("d", 32.5),
                                          ("vocab_size", "10"), ("heads", None),
                                          ("heads", True), ("n_self_layers", False)])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        md.ModelConfig(**{"vocab_size": 10, field: value}).validate()


def test_config_rejects_booleans_that_would_pass_as_counts():
    # True == 1 satisfies d % heads and every lower bound
    with pytest.raises(ValueError, match="^d must be an integer, got True"):
        md.ModelConfig(d=True, heads=True, n_self_layers=True, vocab_size=10).validate()
    md.ModelConfig(d=np.int64(32), heads=np.int64(4), vocab_size=10).validate()


# ---------------------------------------------------------------------------
# encoders


def test_encode_image_shape(cfg, params):
    out = md.encode_image(random_patches(cfg), params, cfg)
    assert out.reps.shape == (cfg.n_patches + 1, cfg.d)


def test_encode_image_wrong_patch_count(cfg, params):
    with pytest.raises(nx.ShapeError):
        md.encode_image(np.zeros((3, cfg.patch_pixels)), params, cfg)


@pytest.mark.parametrize("shape", ["4-D stack", "stack of wrong patch count",
                                   "stack of wrong patch width"])
def test_encode_image_rejects_malformed_stack(cfg, params, shape):
    n, px = cfg.n_patches, cfg.patch_pixels
    patches = np.zeros({"4-D stack": (2, 2, n, px),
                        "stack of wrong patch count": (2, n - 1, px),
                        "stack of wrong patch width": (2, n, px + 3)}[shape])
    with pytest.raises(nx.ShapeError, match="patches"):
        md.encode_image(patches, params, cfg)


def probed_gradients(params, reps, probe):
    """Every parameter gradient of sum(reps * probe), zero where none."""
    grads = nx.backward(nx.sum_all(nx.mul(reps, Tensor(probe))))
    return {name: grads.get(p, np.zeros_like(p.data)) for name, p in params.items()}


def close(a, b):
    return np.allclose(a, b, rtol=1e-12, atol=1e-12)


def test_batched_encode_image_matches_per_image(cfg):
    """A stack of three images (one repeated) in one call: its rows and every
    parameter gradient of a fixed probe equal the per-image calls."""
    params = md.init_params(cfg, Rng(5))
    images = [random_patches(cfg, seed) for seed in (1, 2, 1)]
    probes = Rng(11).normal((3, cfg.n_patches + 1, cfg.d))
    batch = md.encode_image(np.stack(images), params, cfg)
    assert batch.reps.shape == (3, cfg.n_patches + 1, cfg.d) and batch.pad_bias is None
    grads = probed_gradients(params, batch.reps, probes)
    want = {name: np.zeros_like(g) for name, g in grads.items()}
    for b, x in enumerate(images):
        one = md.encode_image(x, params, cfg)
        assert close(batch.reps.data[b], one.reps.data)
        for name, g in probed_gradients(params, one.reps, probes[b]).items():
            want[name] += g
    for name, g in want.items():
        assert close(grads[name], g), name


def test_batched_encode_text_matches_per_text(cfg):
    """Texts of length 1, 4 and the maximum, the second repeated, padded in
    one call: the real rows and every parameter gradient of a probe on them
    equal the per-text calls, and the padding gets key bias ``PAD_BIAS``."""
    params = md.init_params(cfg, Rng(6))
    ids = [[7], [5, 9, 11, 6], list(range(4, 4 + cfg.max_text_len)), [5, 9, 11, 6]]
    rows = [len(i) + 1 for i in ids]
    probe = Rng(12).normal((len(ids), max(rows), cfg.d))
    for b, n in enumerate(rows):
        probe[b, n:] = 0.0
    batch = md.encode_text(ids, params, cfg)
    assert batch.reps.shape == (4, max(rows), cfg.d)
    for b, n in enumerate(rows):
        assert not batch.pad_bias[b, ..., :n].any()
        assert (batch.pad_bias[b, ..., n:] == md.PAD_BIAS).all()
    grads = probed_gradients(params, batch.reps, probe)
    want = {name: np.zeros_like(g) for name, g in grads.items()}
    for b, (i, n) in enumerate(zip(ids, rows)):
        one = md.encode_text(i, params, cfg)
        assert one.reps.shape == (n, cfg.d) and close(batch.reps.data[b, :n], one.reps.data)
        for name, g in probed_gradients(params, one.reps, probe[b, :n]).items():
            want[name] += g
    for name, g in want.items():
        assert close(grads[name], g), name


def test_encode_image_deterministic(cfg, params):
    x = random_patches(cfg, 5)
    a = md.encode_image(x, params, cfg).reps.data
    b = md.encode_image(x, params, cfg).reps.data
    assert np.array_equal(a, b)


def test_encode_image_position_breaks_patch_symmetry(cfg, params):
    x = random_patches(cfg, 1)
    swapped = x.copy()
    swapped[[2, 7]] = swapped[[7, 2]]
    a = md.encode_image(x, params, cfg).reps.data
    b = md.encode_image(swapped, params, cfg).reps.data
    assert not np.allclose(a, b)


def test_encode_text_shape(cfg, params, pipeline):
    ids = pipeline.vocab.encode(["black", "hair", "."])
    out = md.encode_text(ids, params, cfg)
    assert out.reps.shape == (4, cfg.d)


def test_encode_text_mask_token_embeds(cfg, params):
    out = md.encode_text([MASK_ID], params, cfg)
    assert np.all(np.isfinite(out.reps.data))


def test_encode_text_unknown_id_becomes_unk(cfg, params):
    a = md.encode_text([10**6], params, cfg).reps.data
    b = md.encode_text([3], params, cfg).reps.data
    assert np.array_equal(a, b)


def test_encode_text_too_long(cfg, params):
    with pytest.raises(nx.ShapeError):
        md.encode_text([5] * (cfg.max_text_len + 1), params, cfg)
    with pytest.raises(nx.ShapeError):
        md.encode_text([[5], [5] * (cfg.max_text_len + 1)], params, cfg)


def test_pad_embedding_reaches_no_real_row_or_loss(cfg, pipeline):
    """Changing the [PAD] token row leaves the real rows of a padded text
    batch and every term of a stage-2 ``train_step`` loss bit-identical."""
    dataset = data.generate_dataset(
        data.DataConfig(n_identities=5, images_per_identity=3, patch_rows=4,
                        patch_cols=4, patch_pixels=12), Rng(0))
    train_cfg = trainer.TrainConfig(batch_size=5, queue_size=8)
    ids = [[7], [5, 9, 11, 6]]

    def run(pad_row):
        state = trainer.TrainState.for_params(md.init_params(cfg, Rng(8)), cfg,
                                              train_cfg, Rng(1), Rng(2))
        params = state.params
        for table in (params["embed.token"], state.momentum.shadow["embed.token"]):
            table.data[PAD_ID] = pad_row
        reps = md.encode_text(ids, params, cfg).reps.data
        batch = data.make_batches(dataset.train_records(), 5, pipeline,
                                  state.batch_rng)[0]
        phrases = [m.token_ids for pairs in batch.phrase_pairs for _, m in pairs]
        for texts in (batch.token_ids, phrases):
            assert md.encode_text(texts, params, cfg).pad_bias is not None
        _, breakdown = trainer.train_step(batch, 2, state, cfg, train_cfg)
        return reps, breakdown

    reps, breakdown = run(np.zeros(cfg.d))
    other_reps, other = run(np.full(cfg.d, 3.0))
    assert not np.array_equal(reps[0, 2:], other_reps[0, 2:])   # padding does change
    assert np.array_equal(reps[0, :2], other_reps[0, :2])
    assert np.array_equal(reps[1], other_reps[1])
    for term in ("itc", "itm", "tri", "biatt", "mpm", "total"):
        assert getattr(breakdown, term) == getattr(other, term), term


@pytest.mark.parametrize("mode", ["eval", "Infer", ""])
def test_passes_reject_an_unknown_mode(cfg, params, mode):
    img = md.encode_image(random_patches(cfg), params, cfg)
    txt = md.encode_text([5, 6], params, cfg)
    for run in (lambda: md.encode_image(random_patches(cfg), params, cfg, mode=mode),
                lambda: md.encode_text([5, 6], params, cfg, mode=mode),
                lambda: md.cross_encode(txt, img, params, cfg, mode=mode)):
        with pytest.raises(ValueError, match=f"mode must be 'train' or 'infer', got {mode!r}"):
            run()


def test_inference_mode_allocates_no_gradient_state(cfg, params):
    out = md.encode_image(random_patches(cfg), params, cfg, mode="infer")
    assert out.reps.parents == ()
    assert not out.reps.requires_grad


# ---------------------------------------------------------------------------
# cross encoder


def test_cross_encode_shape_and_trace(cfg, params, pipeline):
    img = md.encode_image(random_patches(cfg), params, cfg)
    txt = md.encode_text(pipeline.vocab.encode(["red", "shirt"]), params, cfg)
    fused = md.cross_encode(txt, img, params, cfg, trace_layer=cfg.bidiratt_layer)
    assert fused.reps.shape == (3, cfg.d)
    assert fused.trace is not None
    attn, values = fused.trace.attn, fused.trace.values
    assert attn.shape == (cfg.heads, 3, cfg.n_patches + 1)
    assert np.abs(attn.sum(axis=-1) - 1.0).max() <= 1e-9
    assert values.shape == (cfg.heads, cfg.n_patches + 1, cfg.head_dim)


def test_cross_encode_no_trace_by_default(cfg, params, pipeline):
    img = md.encode_image(random_patches(cfg), params, cfg)
    txt = md.encode_text([5, 6], params, cfg)
    assert md.cross_encode(txt, img, params, cfg).trace is None


def test_cross_encode_trace_layer_out_of_range(cfg, params):
    img = md.encode_image(random_patches(cfg), params, cfg)
    txt = md.encode_text([5], params, cfg)
    with pytest.raises(ValueError, match="trace_layer"):
        md.cross_encode(txt, img, params, cfg, trace_layer=cfg.n_cross_layers + 1)


# Tensors an infer-mode pass of the default model constructs: the image
# encoder wraps its patches, embeds them (linear, [CLS] row, positions) and
# runs one attention and one feed-forward node per self layer; the text
# encoder looks up tokens and positions, adds them and runs the same layers;
# a single-pair cross-encode makes one node per sublayer, three per layer.
# Each costs an op's call, a finiteness scan and the glue around them: a
# pass that makes more has grown per-call overhead
INFER_TENSORS = {"encode_image": 6, "encode_text": 5, "cross_encode": 18}


@pytest.fixture(scope="module")
def default_model(pipeline):
    cfg = md.ModelConfig(vocab_size=len(pipeline.vocab))
    return cfg, md.init_params(cfg, Rng(0))


@pytest.mark.parametrize("encoder", ["encode_image", "encode_text"])
def test_infer_encoders_make_one_tensor_per_op(encoder, default_model, pipeline,
                                               tensors_made):
    cfg, params = default_model
    inputs = {"encode_image": random_patches(cfg),
              "encode_text": pipeline.vocab.encode(["red", "shirt"])}
    made = tensors_made(lambda: getattr(md, encoder)(inputs[encoder], params, cfg,
                                                     mode="infer"))
    assert made == INFER_TENSORS[encoder]


def test_infer_cross_encode_makes_one_tensor_per_sublayer(default_model, pipeline,
                                                          tensors_made):
    """A single pair through the default cross-encoder in infer mode: per
    layer one Tensor each for the self-attention, the cross-attention and
    the feed-forward sublayer, their residual norms included."""
    cfg, params = default_model
    img = md.encode_image(random_patches(cfg), params, cfg, mode="infer")
    txt = md.encode_text(pipeline.vocab.encode(["red", "shirt"]), params, cfg,
                         mode="infer")
    made = tensors_made(lambda: md.cross_encode(txt, img, params, cfg, mode="infer"))
    assert made == INFER_TENSORS["cross_encode"] == 3 * cfg.n_cross_layers


def test_cross_params_shared_between_streams(cfg, params):
    # the phrase stream and the text stream read the very same tensors
    assert params["cross0.cross.wq"] is params["cross0.cross.wq"]
    n_cross = sum(1 for name in params if name.startswith("cross"))
    assert n_cross > 0  # a single parameter set serves both streams


def select(out, index):
    """Sequences ``index`` of an encoder batch with their padding bias: the
    per-pair copy that ``cross_encode``'s text and image indices replace."""
    bias = None if out.pad_bias is None else out.pad_bias[index]
    return md.EncoderOutput(nx.gather_rows(out.reps, index), bias)


def pair_of(fused, b, rows):
    """Pair ``b`` of a batched cross-encode cut to its ``rows`` real text
    rows: the rows on the graph, the trace as a constant slice."""
    trace = md.AttentionTrace(fused.trace.attn[b, :, :rows], fused.trace.values[b])
    return md.EncoderOutput(nx.gather_rows(nx.gather_rows(fused.reps, b), np.arange(rows)),
                            trace=trace)


def test_batched_cross_encode_matches_per_pair(cfg, pipeline, param_grads):
    """Texts of unequal length (one at the batch maximum), a repeated image
    and a trace layer: each pair's real rows, trace and ITM logit, and every
    parameter gradient of a fixed probe, equal the per-pair calls."""
    params = md.init_params(cfg, Rng(4))
    ids = [pipeline.vocab.encode(words) for words in
           (["red", "shirt"], ["a", "man", "in", "blue", "pants"], ["black", "hair", "."])]
    images = [random_patches(cfg, seed) for seed in (1, 2)]
    pairs = [(0, 0), (1, 1), (2, 0)]   # (text, image)
    probes = [Rng(10 + b).normal((len(ids[t]) + 1, cfg.d))
              for b, (t, _) in enumerate(pairs)]

    def run(batched):
        if batched:
            imgs = md.encode_image(np.stack(images), params, cfg)
            txts = md.encode_text(ids, params, cfg)
            fused = md.cross_encode(select(txts, [t for t, _ in pairs]),
                                    select(imgs, [i for _, i in pairs]),
                                    params, cfg, trace_layer=cfg.bidiratt_layer)
            logits = ls.fine_similarity(fused.cls, params["itm.w"]).data
            outs = [pair_of(fused, b, len(ids[t]) + 1) for b, (t, _) in enumerate(pairs)]
        else:
            imgs = [md.encode_image(x, params, cfg) for x in images]
            txts = [md.encode_text(i, params, cfg) for i in ids]
            outs = [md.cross_encode(txts[t], imgs[i], params, cfg,
                                    trace_layer=cfg.bidiratt_layer) for t, i in pairs]
            logits = [float(ls.fine_similarity(o.cls, params["itm.w"]).data)
                      for o in outs]
        grads = param_grads(params, nx.sum_n([nx.sum_all(nx.mul(o.reps, probe))
                                              for o, probe in zip(outs, probes)]))
        return outs, np.asarray(logits), grads

    batch_outs, batch_logits, batch_grads = run(batched=True)
    pair_outs, pair_logits, pair_grads = run(batched=False)

    def close(a, b):
        return np.allclose(a, b, rtol=1e-12, atol=1e-12)

    assert batch_logits.shape == (3,) and close(batch_logits, pair_logits)
    for got, want in zip(batch_outs, pair_outs):
        assert got.reps.shape == want.reps.shape and close(got.reps.data, want.reps.data)
        assert close(got.trace.attn, want.trace.attn)
        assert close(got.trace.values, want.trace.values)
    for name, g in pair_grads.items():
        assert close(batch_grads[name], g), name


def test_indexed_cross_encode_matches_selected_images(cfg, pipeline):
    """An image index with repeats, one image no pair uses, a padded text
    batch and a trace layer: the fused reps, the trace, every parameter
    gradient and the image-rep gradient equal those of the selected image
    rows."""
    params = md.init_params(cfg, Rng(5))
    ids = [pipeline.vocab.encode(words) for words in
           (["red", "shirt"], ["a", "man", "in", "blue", "pants"], ["black", "hair"],
            ["white", "shoes"])]
    index = [2, 0, 2, 2]                # image 1 is unused
    with nx.no_grad():
        image_reps = md.encode_image(
            np.stack([random_patches(cfg, seed) for seed in (3, 4, 5)]), params, cfg).reps
    probe = Rng(11).normal((len(ids), max(map(len, ids)) + 1, cfg.d))

    def run(indexed):
        texts = md.encode_text(ids, params, cfg)
        assert texts.pad_bias is not None
        img = Tensor(image_reps.data, requires_grad=True)
        if indexed:
            fused = md.cross_encode(texts, md.EncoderOutput(img), params, cfg,
                                    trace_layer=cfg.bidiratt_layer, image_index=index)
        else:
            fused = md.cross_encode(texts, select(md.EncoderOutput(img), index), params,
                                    cfg, trace_layer=cfg.bidiratt_layer)
        grads = nx.backward(nx.sum_all(nx.mul(fused.reps, Tensor(probe))))
        return fused, {name: grads.get(p, np.zeros_like(p.data))
                       for name, p in params.items()}, grads[img]

    got, got_grads, got_img = run(indexed=True)
    want, want_grads, want_img = run(indexed=False)

    def close(a, b):
        return a.shape == b.shape and np.allclose(a, b, rtol=1e-12, atol=1e-12)

    assert close(got.reps.data, want.reps.data)
    assert close(got.trace.attn, want.trace.attn)
    assert close(got.trace.values, want.trace.values)
    for name, g in want_grads.items():
        assert close(got_grads[name], g), name
    assert close(got_img, want_img)
    assert not got_img[1].any() and got_img[2].any()


def test_trace_is_constants_of_the_unfused_chain(cfg, pipeline, monkeypatch,
                                                attention_chain, near):
    """The traced layer's values equal the arrays of the attention chain
    before its fusion, and its attention those within ``CHAIN_RTOL``; both
    are constants off the graph."""
    params = md.init_params(cfg, Rng(6))
    ids = [pipeline.vocab.encode(words) for words in
           (["red", "shirt"], ["a", "man", "in", "blue", "pants"], ["black", "hair"])]
    images = md.encode_image(np.stack([random_patches(cfg, s) for s in (7, 8)]),
                             params, cfg)
    traced = params[f"cross{cfg.bidiratt_layer - 1}.cross.wk"]
    inputs = []
    attention = nx.attention

    def recording(x_q, x_kv, wq, wk, *rest):
        if wk is traced:
            inputs.append((x_q.data, x_kv.data))
        return attention(x_q, x_kv, wq, wk, *rest)

    monkeypatch.setattr(nx, "attention", recording)
    fused = md.cross_encode(md.encode_text(ids, params, cfg), images, params, cfg,
                            trace_layer=cfg.bidiratt_layer, image_index=[1, 0, 1])
    assert len(inputs) == 1 and fused.reps.requires_grad
    prefix = f"cross{cfg.bidiratt_layer - 1}.cross"
    _, a, v = attention_chain(*inputs[0], *(params[f"{prefix}.{name}"].data for name in
                                            ("wq", "wk", "wv", "out.w", "out.b")),
                              1.0 / np.sqrt(cfg.head_dim), index=[1, 0, 1])
    assert near(fused.trace.attn, a)
    assert np.array_equal(fused.trace.values, v)
    for constant in (fused.trace.attn, fused.trace.values):
        assert type(constant) is np.ndarray


def test_cross_encode_needs_one_unpadded_image_per_text(cfg, params):
    img = md.encode_image(random_patches(cfg), params, cfg)
    texts = md.encode_text([[5, 6]] * 2, params, cfg)
    with pytest.raises(nx.ShapeError, match="one unpadded image per text"):
        md.cross_encode(texts, md.encode_image(np.stack([random_patches(cfg)] * 3),
                                               params, cfg), params, cfg)
    padded = md.EncoderOutput(nx.gather_rows(img.reps, [0, 0]),
                              Tensor(np.zeros((2, 1, 1, img.reps.shape[0]))))
    with pytest.raises(nx.ShapeError, match="one unpadded image per text"):
        md.cross_encode(texts, padded, params, cfg)
    with pytest.raises(nx.ShapeError, match="one unpadded image per text"):
        md.cross_encode(texts, img, params, cfg)
    # an image index needs one entry per text and a stack of images
    stack = md.encode_image(np.stack([random_patches(cfg)] * 3), params, cfg)
    for bad in ([0], [0, 1, 2], [[0, 1]]):
        with pytest.raises(nx.ShapeError, match="one unpadded image per text"):
            md.cross_encode(texts, stack, params, cfg, image_index=bad)
    with pytest.raises(nx.ShapeError, match="one unpadded image per text"):
        md.cross_encode(texts, img, params, cfg, image_index=[0, 0])
    for bad in ([0, 3], [-1, 0]):
        with pytest.raises(IndexError):
            md.cross_encode(texts, stack, params, cfg, image_index=bad)


def test_outputs_of_read_rows_say_what_they_hold(cfg, params, pipeline):
    """An encoder given ``rows`` returns one row per sequence; ``.cls`` reads
    it only when it is row 0, a text output of some rows carries no padding
    bias, and the cross-encoder refuses inputs that lack rows."""
    texts = [pipeline.vocab.encode(words) for words in
             (["red", "shirt"], ["a", "man", "in", "blue", "pants"])]
    full = md.encode_text(texts, params, cfg)
    cls = md.encode_text(texts, params, cfg, rows=0)
    assert full.pad_bias is not None and cls.pad_bias is None
    assert cls.reps.shape == (2, 1, cfg.d)
    assert np.allclose(cls.cls.data, full.cls.data, rtol=1e-12, atol=0.0)
    mask_rows = md.encode_text(texts, params, cfg, rows=[1, 2])
    with pytest.raises(ValueError, match=r"not the \[CLS\] row"):
        mask_rows.cls
    images = np.stack([random_patches(cfg, seed) for seed in (1, 2)])
    img = md.encode_image(images, params, cfg)
    img_cls = md.encode_image(images, params, cfg, rows=0)
    assert img_cls.reps.shape == (2, 1, cfg.d)
    assert np.allclose(img_cls.cls.data, img.cls.data, rtol=1e-12, atol=0.0)
    fused = md.cross_encode(full, img, params, cfg, rows=[1, 2])
    assert fused.reps.shape == (2, 1, cfg.d)
    with pytest.raises(ValueError, match=r"not the \[CLS\] row"):
        fused.cls
    for text, image in ((cls, img), (full, img_cls)):
        with pytest.raises(nx.ShapeError, match="every row"):
            md.cross_encode(text, image, params, cfg)


def test_encoder_without_self_layers_selects_the_read_rows(pipeline):
    cfg = md.ModelConfig(d=8, heads=2, n_self_layers=0, n_cross_layers=1,
                         bidiratt_layer=1, patch_rows=2, patch_cols=2,
                         patch_pixels=6, vocab_size=len(pipeline.vocab))
    params = md.init_params(cfg, Rng(0))
    texts = [[5, 6], [7, 8, 9]]
    full = md.encode_text(texts, params, cfg).reps.data
    assert np.array_equal(md.encode_text(texts, params, cfg, rows=[2, 3]).reps.data,
                          full[[0, 1], [2, 3]][:, None])


# (cross layers, trace layer, rows): the default pruned [CLS] read, every row
# with layer 1 traced, and one cross layer, whose layer 0 is the last, read at
# row 0 and at a row per pair
TEXT_INDEX_CASES = [(3, None, 0), (3, 1, None), (1, None, 0), (1, None, [1, 0, 2, 1, 0])]


@pytest.mark.parametrize("n_cross, trace_layer, rows", TEXT_INDEX_CASES)
def test_text_index_matches_selected_texts(cfg, pipeline, n_cross, trace_layer, rows,
                                         param_grads):
    """Texts named by index, with a repeated text, a text no pair uses and
    padding: the fused rows, the trace, the ITM logits and loss, and every
    parameter gradient equal those of a per-pair copy of the texts."""
    cfg = dataclasses.replace(cfg, n_cross_layers=n_cross, bidiratt_layer=1)
    params = md.init_params(cfg, Rng(7))
    ids = [pipeline.vocab.encode(words) for words in
           (["red", "shirt"], ["a", "man", "in", "blue", "pants"], ["black", "hair"],
            ["white", "shoes", "and", "a", "bag"])]
    text_index, image_index = [0, 2, 0, 3, 2], [0, 1, 1, 0, 2]   # text 1 unused
    labels = [1.0, 0.0, 0.0, 1.0, 0.0]
    images = np.stack([random_patches(cfg, seed) for seed in (3, 4, 5)])

    def run(indexed):
        img = md.encode_image(images, params, cfg)
        txt = md.encode_text(ids, params, cfg)
        assert txt.pad_bias is not None
        texts = txt if indexed else select(txt, text_index)
        fused = md.cross_encode(texts, img, params, cfg, trace_layer, image_index=image_index,
                                text_index=text_index if indexed else None, rows=rows)
        # row 0 of every row, or the one row of each pair computed
        logits = ls.fine_similarity(nx.take_row(fused.reps, 0), params["itm.w"])
        loss = ls.itm_loss(logits, labels)
        return fused, logits.data, float(loss.data), param_grads(params, loss)

    got, got_logits, got_loss, got_grads = run(indexed=True)
    want, want_logits, want_loss, want_grads = run(indexed=False)

    def close(a, b):
        return a.shape == b.shape and np.allclose(a, b, rtol=1e-12, atol=1e-12)

    assert got.reps.shape == want.reps.shape == \
        (5, 1 if rows is not None else max(map(len, ids)) + 1, cfg.d)
    assert close(got.reps.data, want.reps.data)
    assert close(got_logits, want_logits) and abs(got_loss - want_loss) <= 1e-12 * want_loss
    assert (got.trace is None) == (want.trace is None) == (trace_layer is None)
    if trace_layer is not None:
        assert close(got.trace.attn, want.trace.attn)
        assert close(got.trace.values, want.trace.values)
    for name, g in want_grads.items():
        assert close(got_grads[name], g), name
    assert not got_grads["embed.token"][ids[1][1]].any()   # "man": only text 1


def test_text_index_is_checked(cfg, params):
    img = md.encode_image(np.stack([random_patches(cfg)] * 2), params, cfg)
    texts = md.encode_text([[5, 6], [7, 8, 9], [10]], params, cfg)
    for bad in ([0, 3], [-1, 0]):
        with pytest.raises(IndexError, match=r"text_index \[.*\] outside 0\.\.2"):
            md.cross_encode(texts, img, params, cfg, image_index=[0, 1], text_index=bad)
    # one text per pair of the image index, from a batch of texts
    with pytest.raises(nx.ShapeError, match="text index"):
        md.cross_encode(texts, img, params, cfg, image_index=[0, 1], text_index=[0, 1, 2])
    one = md.encode_text([5, 6], params, cfg)
    with pytest.raises(nx.ShapeError, match="text index"):
        md.cross_encode(one, img, params, cfg, image_index=[0, 1], text_index=[0, 0])


@pytest.mark.parametrize("trace_layer", [1, 2, 3])
def test_trace_only_cross_encode_stops_at_the_traced_layer(cfg, pipeline, monkeypatch,
                                                           trace_layer):
    """Empty rows read the trace alone: bit-equal to the full pass's trace,
    made by the layers up to the traced one's cross-attention, one Tensor
    per sublayer, none of them a graph node, though the inputs are on the
    graph."""
    params = md.init_params(cfg, Rng(8))
    img = md.encode_image(np.stack([random_patches(cfg, s) for s in (1, 2)]), params, cfg)
    phrases = md.encode_text([pipeline.vocab.encode(words) for words in
                              (["red", "shirt"], ["dark", "blue", "jacket"])], params, cfg)
    assert img.reps.requires_grad and phrases.reps.requires_grad
    full = md.cross_encode(phrases, img, params, cfg, trace_layer, image_index=[1, 0])
    made = []
    init = nx.Tensor.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self.requires_grad)

    monkeypatch.setattr(nx.Tensor, "__init__", recording)
    only = md.cross_encode(phrases, img, params, cfg, trace_layer, image_index=[1, 0],
                           rows=[])
    monkeypatch.setattr(nx.Tensor, "__init__", init)
    assert made == [False] * (3 * trace_layer - 1)
    assert only.reps is None and only.rows == []
    assert np.array_equal(only.trace.attn, full.trace.attn)
    assert np.array_equal(only.trace.values, full.trace.values)
    with pytest.raises(ValueError, match="reads no rows needs a trace layer"):
        md.cross_encode(phrases, img, params, cfg, image_index=[1, 0], rows=())


def test_cls_of_a_trace_only_cross_encode_names_what_is_missing(cfg, pipeline):
    params = md.init_params(cfg, Rng(8))
    img = md.encode_image(random_patches(cfg, 1), params, cfg)
    phrase = md.encode_text(pipeline.vocab.encode(["red", "shirt"]), params, cfg)
    only = md.cross_encode(phrase, img, params, cfg, trace_layer=1, rows=())
    with pytest.raises(ValueError, match="read no row and holds only the trace"):
        only.cls


# ---------------------------------------------------------------------------
# momentum


def test_momentum_alpha_zero_copies_live(cfg, params):
    state = md.MomentumState.from_params(params, alpha=0.0)
    params["proj.img.w"].data += 1.0
    md.momentum_update(params, state)
    assert np.array_equal(state.shadow["proj.img.w"].data, params["proj.img.w"].data)


def test_momentum_hand_value():
    p = {"embed.x": Tensor(np.zeros(3), requires_grad=True)}
    state = md.MomentumState.from_params(p, alpha=0.995)
    p["embed.x"].data[...] = 1.0
    md.momentum_update(p, state)
    assert np.allclose(state.shadow["embed.x"].data, 0.005)


def test_momentum_converges_geometrically():
    p = {"embed.x": Tensor(np.full(2, 2.0), requires_grad=True)}
    state = md.MomentumState.from_params(p, alpha=0.5)
    state.shadow["embed.x"].data[...] = 0.0
    gaps = []
    for _ in range(5):
        md.momentum_update(p, state)
        gaps.append(abs(state.shadow["embed.x"].data[0] - 2.0))
    ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    assert np.allclose(ratios, 0.5)


def test_momentum_shape_drift_rejected(cfg, params):
    state = md.MomentumState.from_params(params, alpha=0.9)
    state.shadow["proj.img.w"] = nx.Tensor(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="shape drift"):
        md.momentum_update(params, state)


def test_momentum_only_mirrors_unimodal_and_projections(cfg, params):
    state = md.MomentumState.from_params(params, alpha=0.9)
    assert any(n.startswith("embed.") for n in state.shadow)
    assert any(n.startswith("proj.") for n in state.shadow)
    assert not any(n.startswith("cross") for n in state.shadow)
    assert not any(n.startswith(("mpm.", "itm.", "score.", "temp.")) for n in state.shadow)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(cfg, params, tmp_path):
    state = md.params_state(params)
    md.save_checkpoint(tmp_path / "ckpt", state)
    loaded = md.load_checkpoint(tmp_path / "ckpt")
    assert set(loaded) == set(state)
    for name, tensor in state.items():
        assert np.array_equal(loaded[name], tensor.data)


def test_checkpoint_version_enforced(cfg, params, tmp_path):
    md.save_checkpoint(tmp_path / "ckpt", md.params_state(params))
    manifest = tmp_path / "ckpt" / "manifest.json"
    manifest.write_text(manifest.read_text().replace(
        f'"format_version": {md.CHECKPOINT_VERSION}', '"format_version": 42'))
    with pytest.raises(md.CheckpointError, match="version"):
        md.load_checkpoint(tmp_path / "ckpt")


CHECKPOINT_DEFECTS = {
    # case: (manifest edit, bytes appended to tensors.bin, error names)
    "trailing bytes": (lambda m: None, b"\0" * 8, "trailing bytes after tensor 'b'"),
    "bytes not a multiple of 8": (lambda m: m["tensors"][1].update(bytes=31), b"",
                                  "'b'"),
    "bytes do not match shape": (lambda m: m["tensors"][0].update(shape=[2, 2]),
                                 b"", "'a'"),
    "no offset": (lambda m: m["tensors"][0].pop("offset"), b"", "'a'.*offset"),
    "no bytes": (lambda m: m["tensors"][0].pop("bytes"), b"", "'a'.*bytes"),
    "no shape": (lambda m: m["tensors"][0].pop("shape"), b"", "'a'.*shape"),
    "no name": (lambda m: m["tensors"][1].pop("name"), b"", "entry 1.*name"),
    "no tensor list": (lambda m: m.pop("tensors"), b"", "tensor entries"),
    "entry not an object": (lambda m: m["tensors"].insert(0, 3), b"", "tensor entries"),
    "name not a string": (lambda m: m["tensors"][1].update(name=["b"]), b"",
                          r"entry 1 has name \['b'\]"),
    "repeated name": (lambda m: m["tensors"][1].update(name="a"), b"",
                      "entry 1 repeats tensor name 'a'"),
    "string offset": (lambda m: m["tensors"][0].update(offset="8"), b"",
                      "'a' starts at offset '8'"),
    "bool in shape": (lambda m: m["tensors"][1].update(shape=[True, 4]), b"",
                      r"'b'.*shape \[True"),
    "nan value": (lambda m: m["tensors"].append(
        {"name": "c", "shape": [1], "offset": 88, "bytes": 8}),
        np.float64(np.nan).tobytes(), "'c' holds NaN"),
    # None deletes tensors.bin
    "no blob file": (lambda m: None, None, "tensors.bin"),
    # bytes replace the whole manifest file
    "manifest not an object": (b"[]", b"", "not a JSON object"),
    "manifest not utf-8": (b'{"format_version": 2, "\xff": 0}', b"", "utf-8"),
}


@pytest.mark.parametrize("case", list(CHECKPOINT_DEFECTS))
def test_checkpoint_rejects_malformed_files(case, tmp_path):
    edit, extra, names = CHECKPOINT_DEFECTS[case]
    path = tmp_path / "ckpt"
    md.save_checkpoint(path, {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4)})
    if isinstance(edit, bytes):
        (path / "manifest.json").write_bytes(edit)
    else:
        manifest = json.loads((path / "manifest.json").read_text())
        edit(manifest)
        (path / "manifest.json").write_text(json.dumps(manifest))
    if extra is None:
        (path / "tensors.bin").unlink()
    else:
        with open(path / "tensors.bin", "ab") as fh:
            fh.write(extra)
    with pytest.raises(md.CheckpointError, match=names):
        md.load_checkpoint(path)


def test_checkpoint_restores_into_params(cfg, tmp_path):
    a = md.init_params(cfg, Rng(1))
    momentum = md.MomentumState.from_params(a, 0.995)
    md.save_checkpoint(tmp_path / "ckpt", md.params_state(a, momentum))
    b = md.init_params(cfg, Rng(2))
    momentum_b = md.MomentumState.from_params(b, 0.995)
    md.load_params_state(b, momentum_b, md.load_checkpoint(tmp_path / "ckpt"))
    for name, t in a.items():
        assert np.array_equal(t.data, b[name].data)
    for name, t in momentum.shadow.items():
        assert np.array_equal(t.data, momentum_b.shadow[name].data)


def test_load_state_rejects_shape_mismatch(params):
    state = {name: t.data.copy() for name, t in params.items()}
    state["embed.patch.b"] = np.zeros(1)
    state["embed.token"] = state["embed.token"] + 1.0
    before = params["embed.token"].data.copy()
    with pytest.raises(ValueError, match="embed.patch.b"):
        md.load_params_state(params, None, state)
    # nothing is written when any tensor fails the check
    assert np.array_equal(params["embed.token"].data, before)


def test_load_state_rejects_missing_tensor(params):
    momentum = md.MomentumState.from_params(params, 0.995)
    state = {name: t.data.copy()
             for name, t in md.params_state(params, momentum).items()}
    del state["momentum/proj.img.w"]
    with pytest.raises(ValueError, match="momentum/proj.img.w"):
        md.load_params_state(params, momentum, state)


def test_load_state_rejects_a_checkpoint_of_a_deeper_model(pipeline, tmp_path):
    """A checkpoint of the default 6-cross-layer model does not load into a
    2-cross-layer one: the first of its 80 surplus tensors is named, and
    nothing is written."""
    deep = md.ModelConfig(vocab_size=len(pipeline.vocab))
    params = md.init_params(deep, Rng(1))
    md.save_checkpoint(tmp_path / "ckpt",
                       md.params_state(params, md.MomentumState.from_params(params, 0.995)))
    shallow = md.init_params(dataclasses.replace(deep, n_cross_layers=2,
                                                 bidiratt_layer=2), Rng(2))
    momentum = md.MomentumState.from_params(shallow, 0.995)
    before = {name: t.data.copy() for name, t in md.params_state(shallow, momentum).items()}
    with pytest.raises(md.CheckpointError, match=r"'cross2\.self\.wq'.*\(80 such"):
        md.load_params_state(shallow, momentum, md.load_checkpoint(tmp_path / "ckpt"))
    for name, t in md.params_state(shallow, momentum).items():
        assert np.array_equal(t.data, before[name]), name
