import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phrasealign import local_align as la
from phrasealign import losses as ls
from phrasealign import model as md
from phrasealign import numerics as nx
from phrasealign.numerics import Rng, Tensor
from phrasealign.textproc import MASK_ID, MaskedPhrase, TextPipeline


def stochastic_rows(raw):
    e = np.exp(raw - raw.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def fake_trace(attn, values, heads=1):
    """Batched trace from per-pair (B, L_txt, L_img + 1) attention and
    (B, L_img + 1, head_dim) values, identical for every head."""
    def stacked(m):
        return np.repeat(np.asarray(m, dtype=float)[:, None], heads, axis=1)
    return md.AttentionTrace(stacked(attn), stacked(values))


def head_trace(fa_heads, ba_heads):
    """Batch-of-one trace whose one-row attention and one-column values are
    chosen per head, so that ``heads_ws`` of ones gives backward attention
    ``ba_heads``."""
    fa, ba = np.asarray(fa_heads, dtype=float), np.asarray(ba_heads, dtype=float)
    return md.AttentionTrace(fa[None, :, None, :], ba[None, :, :, None])


# ---------------------------------------------------------------------------
# forward attention


def test_forward_attention_reads_requested_row():
    trace = fake_trace([[[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]]], np.zeros((1, 3, 2)))
    ws = np.ones((1, 2))
    assert np.array_equal(la.compute_weights(trace, ws, [0]).w_fa, [[0.7, 0.2, 0.1]])
    assert np.array_equal(la.compute_weights(trace, ws, [1]).w_fa, [[0.1, 0.8, 0.1]])


def test_forward_attention_rows_sum_to_one():
    rng = Rng(0)
    trace = fake_trace([stochastic_rows(rng.normal((4, 6)))], rng.normal((1, 6, 3)),
                       heads=2)
    fa = la.compute_weights(trace, rng.normal((2, 3)), [2]).w_fa
    assert fa.shape == (1, 6) and abs(fa.sum() - 1.0) <= 1e-9


def test_forward_attention_requires_trace():
    with pytest.raises(ValueError, match="trace"):
        la.compute_weights(None, np.ones((1, 2)), [0])


# ---------------------------------------------------------------------------
# score


def score_per_head(attn: Tensor, values: np.ndarray, mask_row: int,
                   w_s: Tensor) -> Tensor:
    """(heads,) masked-token prediction score of a batch-of-one trace's
    attention, as a Tensor, and values, on the graph: (A_row V) w_s; the
    reference that backward attention's closed form is checked against."""
    row = nx.take_row(attn, mask_row)
    _, heads, n = row.shape
    rows = nx.reshape(row, (heads, n))
    s = [nx.reshape(nx.linear(nx.linear(nx.take_row(rows, h), Tensor(values[0, h])), w_s),
                    (1, 1)) for h in range(heads)]
    return nx.reshape(nx.concat(s), (heads,))


def test_score_hand_value():
    trace = fake_trace([[[1.0, 0.0]]], [[[1.0, 2.0], [3.0, 4.0]]])
    s = score_per_head(Tensor(trace.attn), trace.values, 0, Tensor([[1.0], [1.0]]))
    assert s.data.item() == pytest.approx(3.0)


def test_score_zero_projection():
    trace = fake_trace([[[0.3, 0.7]]], [[[1.0, 2.0], [3.0, 4.0]]])
    s = score_per_head(Tensor(trace.attn), trace.values, 0, Tensor([[0.0], [0.0]]))
    assert s.data.item() == 0.0


def test_score_linear_in_projection():
    trace = fake_trace([[[0.3, 0.7]]], [[[1.0, 2.0], [3.0, 4.0]]])
    w = Rng(1).normal((2, 1))
    s1, s2 = (score_per_head(Tensor(trace.attn), trace.values, 0, Tensor(scale * w))
              for scale in (1.0, 2.0))
    assert s2.data.item() == pytest.approx(2.0 * s1.data.item())


# ---------------------------------------------------------------------------
# backward attention


def test_backward_attention_hand_value():
    trace = fake_trace([[[1.0, 0.0]]], [[[1.0, 2.0], [3.0, 4.0]]])
    ba = la.compute_weights(trace, np.array([[1.0, 1.0]]), [0]).w_ba
    assert np.array_equal(ba, [[3.0, 7.0]])


def test_backward_attention_zero_values():
    trace = fake_trace([[[0.5, 0.5]]], np.zeros((1, 2, 3)))
    ba = la.compute_weights(trace, np.ones((1, 3)), [0]).w_ba
    assert np.array_equal(ba, [[0.0, 0.0]])


@pytest.mark.parametrize("seed", range(5))
def test_backward_attention_equals_autodiff(seed):
    rng = Rng(seed)
    n_img, dh = 5, 4
    trace = fake_trace([stochastic_rows(rng.normal((3, n_img)))],
                       rng.normal((1, n_img, dh)))
    attn = Tensor(trace.attn, requires_grad=True)
    ws = Tensor(rng.normal((dh, 1)))
    grad = nx.backward(score_per_head(attn, trace.values, 2, ws))[attn]
    ba = la.compute_weights(trace, ws.data.reshape(1, -1), [2]).w_ba
    autodiff = np.maximum(grad[0, 0, 2], 0.0)
    denom = np.maximum(np.abs(autodiff), 1e-12)
    assert (np.abs(ba[0] - autodiff) / denom).max() < 1e-10
    # rows other than the scored one receive no gradient at all
    assert np.array_equal(grad[0, 0, 0], np.zeros(n_img))


# ---------------------------------------------------------------------------
# bidirectional weights


def test_weights_neutral_backward_returns_forward():
    fa = [0.2, 0.5, 0.3]
    w = la.compute_weights(head_trace([fa], [np.ones(3)]), np.ones((1, 1)), [0]).w
    assert np.allclose(w, [fa])


def test_weights_hand_value():
    w = la.compute_weights(head_trace([[0.5, 0.5]], [[1.0, 3.0]]), np.ones((1, 1)), [0]).w
    assert np.allclose(w, [[0.25, 0.75]])


def test_weights_all_negative_backward_falls_back():
    fa = [0.1, 0.6, 0.3]
    w = la.compute_weights(head_trace([fa], [[-1.0, -2.0, -0.5]]), np.ones((1, 1)), [0]).w
    assert np.allclose(w, [fa])


@given(raw=hnp.arrays(np.float64, (2, 6), elements=st.floats(-10, 10)),
       ba=hnp.arrays(np.float64, (2, 6), elements=st.floats(-100, 100)))
def test_weights_are_probability_vector(raw, ba):
    trace = head_trace(stochastic_rows(raw), ba)
    w = la.compute_weights(trace, np.ones((2, 1)), [0]).w
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= 1e-9


def test_weights_invariant_to_value_scale():
    rng = Rng(3)
    fa = stochastic_rows(rng.normal((4, 9)))
    ba = rng.normal((4, 9, 4)) @ rng.normal(4)
    w1 = la.compute_weights(head_trace(fa, ba), np.ones((4, 1)), [0]).w
    w2 = la.compute_weights(head_trace(fa, 17.3 * ba), np.ones((4, 1)), [0]).w
    assert np.abs(w1 - w2).max() <= 1e-9
    assert w1.argmax() == w2.argmax()


def test_weights_fall_back_per_pair():
    # pair 0's backward attention is negative everywhere, pair 1's is not
    fa = [[0.1, 0.6, 0.3], [0.5, 0.25, 0.25]]
    trace = fake_trace([[row] for row in fa], [[[-1.0], [-2.0], [-0.5]],
                                              [[1.0], [2.0], [4.0]]])
    weights = la.compute_weights(trace, np.ones((1, 1)), [0, 0])
    assert np.array_equal(weights.w[0], weights.w_fa[0])
    assert np.allclose(weights.w[1], np.array([0.5, 0.5, 1.0]) / 2.0)


def test_weights_row_mode_reads_cls_or_own_row():
    attn = [[[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]],
            [[0.5, 0.3, 0.2], [0.3, 0.5, 0.2], [0.1, 0.1, 0.8]]]
    trace = fake_trace(attn, np.ones((2, 3, 1)))
    mask = la.compute_weights(trace, np.ones((1, 1)), [1, 2], row_mode="mask")
    assert np.array_equal(mask.w_fa, [attn[0][1], attn[1][2]])
    cls = la.compute_weights(trace, np.ones((1, 1)), [1, 2], row_mode="cls")
    assert np.array_equal(cls.w_fa, [attn[0][0], attn[1][0]])


# ---------------------------------------------------------------------------
# pooling


def image_output(rows):
    """Batch-of-one encoder output."""
    return md.EncoderOutput(Tensor(np.asarray(rows, dtype=float)[None]))


def test_pool_one_hot_selects_patch():
    img = image_output(Rng(0).normal((5, 3)))
    w = np.array([[0.0, 0.0, 0.0, 1.0, 0.0]])  # CLS + 4 patches; patch 3
    pooled = la.weighted_pool(w, img)
    assert np.allclose(pooled.data, img.reps.data[:, 3])


def test_pool_uniform_is_patch_mean():
    img = image_output(Rng(1).normal((5, 3)))
    w = np.full((1, 5), 0.2)
    pooled = la.weighted_pool(w, img)
    assert np.allclose(pooled.data, img.reps.data[:, 1:].mean(axis=1))


def test_pool_identical_rows_any_weights():
    row = Rng(2).normal(4)
    img = image_output(np.vstack([np.zeros(4)] + [row] * 6))
    w = np.array([[0.1, 0.3, 0.2, 0.1, 0.1, 0.1, 0.1]])
    pooled = la.weighted_pool(w, img)
    assert np.allclose(pooled.data, [row])


def test_pool_rejects_unnormalized():
    img = image_output(np.zeros((3, 2)))
    with pytest.raises(ValueError, match="sum"):
        la.weighted_pool(np.array([[1.0, 1.0, 1.0]]), img)


def test_pool_in_convex_hull():
    rng = Rng(4)
    img = image_output(rng.normal((6, 2)))
    raw = rng.uniform(6) + 0.01
    w = (raw / raw.sum())[None]
    pooled = la.weighted_pool(w, img)
    patches = img.reps.data[0, 1:]
    assert pooled.data.min() >= patches.min(axis=0).min() - 1e-12
    assert pooled.data.max() <= patches.max(axis=0).max() + 1e-12


# ---------------------------------------------------------------------------
# coarse similarity and loss


def projections(proj_img, proj_txt):
    return {"proj.img.w": Tensor(proj_img, requires_grad=True),
            "proj.txt.w": Tensor(proj_txt, requires_grad=True)}


def test_similarity_identical_is_one():
    v = [1.0, 2.0, 3.0]
    img = image_output([np.zeros(3), v])
    loss = la.pooled_alignment_loss(np.array([[0.0, 1.0]]), img, image_output([v]),
                                    projections(np.eye(3), np.eye(3)))
    assert loss.data.item() == pytest.approx(0.0, abs=1e-12)


def test_similarity_orthogonal_is_zero():
    img = image_output([[0.0, 0.0], [1.0, 0.0]])
    loss = la.pooled_alignment_loss(np.array([[0.0, 1.0]]), img,
                                    image_output([[0.0, 1.0]]),
                                    projections(np.eye(2), np.eye(2)))
    assert loss.data.item() == pytest.approx(1.0)


def test_similarity_scale_invariant():
    rng = Rng(5)
    params = projections(rng.normal((4, 3)), rng.normal((4, 3)))
    rows, cls = rng.normal((3, 4)), rng.normal((1, 4))
    w = np.array([[0.2, 0.5, 0.3]])
    base = la.pooled_alignment_loss(w, image_output(rows), image_output(cls), params)
    scaled = la.pooled_alignment_loss(w, image_output(7.0 * rows),
                                      image_output(0.3 * cls), params)
    assert scaled.data.item() == pytest.approx(base.data.item(), abs=1e-12)


def loss_setup(cls_row):
    # identical patch rows make pooling trivial; identity projections make
    # the similarity the cosine of the patch row and ``cls_row``
    row = np.array([1.0, -2.0, 0.5])
    img = image_output(np.vstack([np.zeros(3)] + [row] * 4))
    phrase = image_output(np.vstack([cls_row, row]))
    rng = Rng(0)
    trace = fake_trace([stochastic_rows(rng.normal((2, 5)))], rng.normal((1, 5, 2)),
                       heads=2)
    fusion = md.EncoderOutput(Tensor(np.zeros((1, 2, 3))), trace=trace)
    params = projections(np.eye(3), np.eye(3))
    params["score.w"] = Tensor(rng.normal((2, 1)), requires_grad=True)
    cfg = md.ModelConfig(d=3, heads=2, vocab_size=8, patch_rows=2, patch_cols=2,
                         patch_pixels=3)
    return img, phrase, fusion, params, cfg


def test_loss_zero_when_aligned():
    img, phrase, fusion, params, cfg = loss_setup([1.0, -2.0, 0.5])
    loss, weights = la.local_alignment_loss(img, phrase, fusion, [1], params, cfg)
    assert loss.data.item() == pytest.approx(0.0, abs=1e-12)
    assert abs(weights.w.sum() - 1.0) <= 1e-9


def test_loss_two_when_anti_aligned():
    img, phrase, fusion, params, cfg = loss_setup([-1.0, 2.0, -0.5])
    loss, _ = la.local_alignment_loss(img, phrase, fusion, [1], params, cfg)
    assert loss.data.item() == pytest.approx(2.0, abs=1e-12)


def test_loss_within_range_on_random_setups():
    rng = Rng(9)
    for _ in range(10):
        img = image_output(rng.normal((5, 3)))
        phrase = image_output(rng.normal((3, 3)))
        trace = fake_trace([stochastic_rows(rng.normal((3, 5)))],
                           rng.normal((1, 5, 2)), heads=2)
        fusion = md.EncoderOutput(Tensor(np.zeros((1, 3, 3))), trace=trace)
        params = projections(rng.normal((3, 4)), rng.normal((3, 4)))
        params["score.w"] = Tensor(rng.normal((2, 1)), requires_grad=True)
        cfg = md.ModelConfig(d=3, heads=2, vocab_size=8, patch_rows=2,
                             patch_cols=2, patch_pixels=3, proj_dim=4)
        loss, _ = la.local_alignment_loss(img, phrase, fusion, [1], params, cfg)
        assert 0.0 <= loss.data.item() <= 2.0


def test_loss_requires_trace():
    img, phrase, fusion, params, cfg = loss_setup([1.0, -2.0, 0.5])
    fusion_no_trace = md.EncoderOutput(fusion.reps)
    with pytest.raises(ValueError, match="trace"):
        la.local_alignment_loss(img, phrase, fusion_no_trace, [1], params, cfg)


# ---------------------------------------------------------------------------
# heatmap export


def test_heatmap_csv_lines(tmp_path):
    w = la.BidirectionalWeights(
        w_fa=np.linspace(0, 1, 5), w_ba=np.linspace(1, 2, 5),
        w=np.array([0.0, 0.25, 0.25, 0.25, 0.25]))
    la.write_heatmap_csv(tmp_path / "w.csv", w, 2, 2)
    lines = (tmp_path / "w.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "patch,row,col,w,w_fa,w_ba"
    assert len(lines) == 5
    assert lines[1].startswith("1,0,0,0.25,")
    assert lines[4].startswith("4,1,1,0.25,")


def test_heatmap_export_takes_one_pair(tmp_path):
    attn = [[[0.1, 0.2, 0.3, 0.4, 0.0]], [[0.2, 0.2, 0.2, 0.2, 0.2]]]
    values = [[[1.0], [1.0], [2.0], [3.0], [4.0]], [[1.0], [4.0], [3.0], [2.0], [1.0]]]
    weights = la.compute_weights(fake_trace(attn, values), np.ones((1, 1)), [0, 0])
    pair = weights.pair(1)
    assert np.array_equal(pair.w, weights.w[1])
    la.write_heatmap_csv(tmp_path / "w.csv", pair, 2, 2)
    lines = (tmp_path / "w.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5 and lines[1] == f"1,0,0,{weights.w[1, 1]:.12g},0.2,4"
    la.write_pgm(tmp_path / "w.pgm", pair.w, 2, 2)
    assert (tmp_path / "w.pgm").read_bytes().endswith(bytes([255, 170, 85, 0]))
    with pytest.raises(nx.ShapeError, match="pair"):
        la.write_heatmap_csv(tmp_path / "batch.csv", weights, 2, 2)
    assert not (tmp_path / "batch.csv").exists()
    with pytest.raises(nx.ShapeError):
        la.write_pgm(tmp_path / "batch.pgm", weights.w, 2, 2)
    with pytest.raises(nx.ShapeError):
        la.write_pgm(tmp_path / "short.pgm", pair.w[:4], 2, 2)
    assert not (tmp_path / "batch.pgm").exists()


def test_pgm_output(tmp_path):
    w = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
    la.write_pgm(tmp_path / "w.pgm", w, 2, 2)
    raw = (tmp_path / "w.pgm").read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    pixels = raw[len(b"P5\n2 2\n255\n"):]
    assert len(pixels) == 4
    assert pixels[0] == 0 and pixels[3] == 255


# ---------------------------------------------------------------------------
# a padded batch of pairs against batch-of-one calls


def phrase_batch_setup(**over):
    """A toy model, two images and three masked phrases of 2, 4 and 3 tokens
    (the second at the batch maximum), paired with images 0, 1 and 0."""
    pipeline = TextPipeline()
    cfg = md.ModelConfig(**dict(d=8, heads=2, n_self_layers=1, n_cross_layers=2,
                                bidiratt_layer=1, proj_dim=4, patch_rows=2, patch_cols=2,
                                patch_pixels=6, max_text_len=12,
                                vocab_size=len(pipeline.vocab)) | over)
    params = md.init_params(cfg, Rng(0))
    # widened as in the gradcheck suite, so attention and weights differ by row
    for name, t in params.items():
        if t.data.ndim >= 2 and name != "mpm.w2":
            t.data *= 12.0
    images = [Rng(seed).uniform((cfg.n_patches, cfg.patch_pixels)) for seed in (1, 2)]
    masked = []
    for words, pos in ((["red", "shirt"], 1), (["dark", "blue", "striped", "jacket"], 2),
                       (["small", "black", "hat"], 0)):
        ids = pipeline.vocab.encode(words)
        masked.append(MaskedPhrase(tuple(ids[:pos] + [MASK_ID] + ids[pos + 1:]),
                                   pos, ids[pos]))
    return cfg, params, images, masked, [0, 1, 0]


def phrase_losses(cfg, params, images, masked, img_of, zero_cls_of=None):
    """Both phrase losses of the stacked pairs, with the [CLS] row of pair
    ``zero_cls_of`` (if given) zeroed in the phrase input of the alignment."""
    image = md.EncoderOutput(nx.gather_rows(
        md.encode_image(np.stack(images), params, cfg).reps, img_of))
    phrase = md.encode_text([m.token_ids for m in masked], params, cfg)
    mask_rows = [m.mask_index + 1 for m in masked]
    fused = md.cross_encode(phrase, image, params, cfg,
                            trace_layer=cfg.bidiratt_layer, rows=mask_rows)
    if zero_cls_of is not None:
        keep = np.ones(phrase.reps.shape[:-1] + (1,))
        keep[zero_cls_of, 0] = 0.0
        phrase = md.EncoderOutput(nx.mul(phrase.reps, Tensor(keep)))
    biatt, weights = la.local_alignment_loss(
        image, phrase, fused, mask_rows, params, cfg,
        target_id=[m.target_id for m in masked])
    mpm = ls.masked_phrase_loss(fused, masked, params)
    return biatt, mpm, weights


def probed_grads(params, biatt, mpm, probe):
    """Every parameter gradient of a fixed combination of the loss rows, zero
    where none."""
    grads = nx.backward(nx.add(nx.sum_all(nx.mul(biatt, Tensor(probe[0, :biatt.size]))),
                               nx.sum_all(nx.mul(mpm, Tensor(probe[1, :mpm.size])))))
    return {name: grads.get(p, np.zeros_like(p.data)) for name, p in params.items()}


VARIANTS = {"default": {}, "tie_score_head": {"tie_score_head": True},
            "biatt_row=cls": {"biatt_row": "cls"}}


@pytest.mark.parametrize("over", list(VARIANTS.values()), ids=list(VARIANTS))
def test_batched_phrase_losses_match_batch_of_one_calls(over):
    cfg, params, images, masked, img_of = phrase_batch_setup(**over)
    probe = Rng(7).normal((2, len(masked)))
    biatt, mpm, weights = phrase_losses(cfg, params, images, masked, img_of)
    assert biatt.shape == mpm.shape == (3,)
    grads = probed_grads(params, biatt, mpm, probe)

    want = {"biatt": [], "mpm": [], "w": [], "w_fa": [], "w_ba": []}
    want_grads = {name: np.zeros_like(g) for name, g in grads.items()}
    for b, m in enumerate(masked):
        one_biatt, one_mpm, one_w = phrase_losses(cfg, params, images, [m], img_of[b:b + 1])
        want["biatt"].append(one_biatt.data[0])
        want["mpm"].append(one_mpm.data[0])
        for key, got in (("w", one_w.w), ("w_fa", one_w.w_fa), ("w_ba", one_w.w_ba)):
            want[key].append(got[0])
        for name, g in probed_grads(params, one_biatt, one_mpm, probe[:, b:b + 1]).items():
            want_grads[name] += g

    def close(a, b):
        return np.allclose(a, b, rtol=1e-12, atol=1e-12)

    assert close(biatt.data, want["biatt"]) and close(mpm.data, want["mpm"])
    for key, got in (("w", weights.w), ("w_fa", weights.w_fa), ("w_ba", weights.w_ba)):
        assert got.shape[0] == 3 and close(got, np.array(want[key])), key
    for name, g in want_grads.items():
        assert close(grads[name], g), name


def test_zero_phrase_cls_raises_non_finite():
    cfg, params, images, masked, img_of = phrase_batch_setup()
    with pytest.raises(nx.NonFiniteError):
        phrase_losses(cfg, params, images, masked, img_of, zero_cls_of=1)


# ---------------------------------------------------------------------------
# last layers that compute only the rows a loss reads


def selected(fused, rows):
    """The ``rows`` of a fusion of every row, held as a pass given ``rows``
    holds them."""
    return md.EncoderOutput(nx.select_rows(fused.reps, rows), rows=rows, trace=fused.trace)


def read_row_terms(cfg, params, images, masked, img_of, read_rows: bool):
    """The terms of the phrase pairs that read one row of each last layer,
    built as ``trainer.train_step`` builds them with ``read_rows``, or from
    every row, the [MASK] rows selected after: ITM logits from the fused
    [CLS] rows, the per-phrase MPM losses, and the [CLS] embeddings the
    momentum encoders give ITC."""
    texts = [m.token_ids for m in masked]
    image = md.encode_image(np.stack(images), params, cfg)
    phrase = md.encode_text(texts, params, cfg)
    cls_rows = 0 if read_rows else None
    mask_rows = [m.mask_index + 1 for m in masked]
    itm = md.cross_encode(phrase, image, params, cfg, image_index=img_of, rows=cls_rows)
    mpm = md.cross_encode(phrase, image, params, cfg, trace_layer=cfg.bidiratt_layer,
                          image_index=img_of, rows=mask_rows if read_rows else None)
    mpm = mpm if read_rows else selected(mpm, mask_rows)
    with nx.no_grad():
        embeddings = md.coarse_embeddings(images, texts, params, cfg, rows=cls_rows)[2:]
    return (ls.fine_similarity(itm.cls, params["itm.w"]),
            ls.masked_phrase_loss(mpm, masked, params),
            [e.data for e in embeddings], mpm)


@pytest.mark.parametrize("over", list(VARIANTS.values()), ids=list(VARIANTS))
def test_last_layers_on_read_rows_match_the_full_pass(over):
    """ITM logits, per-phrase MPM losses and momentum [CLS] embeddings from
    last layers that compute only the read rows equal those of the full pass
    within 1e-12 relative, and so do the parameter gradients of a fixed
    probe."""
    cfg, params, images, masked, img_of = phrase_batch_setup(**over)
    probe = Rng(7).normal((2, len(masked)))
    got, want = (read_row_terms(cfg, params, images, masked, img_of, read_rows)
                 for read_rows in (True, False))
    # a fusion of each [MASK] row alone
    assert got[3].reps.shape[1] == 1
    assert np.array_equal(got[3].trace.attn, want[3].trace.attn)

    def close(a, b):
        return np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    for a, b in zip(got[2] + [got[0].data, got[1].data],
                    want[2] + [want[0].data, want[1].data]):
        assert a.shape == b.shape and close(a, b)
    got_grads, want_grads = (probed_grads(params, logits, mpm, probe)
                             for logits, mpm, _, _ in (got, want))
    for name, g in want_grads.items():
        assert np.allclose(got_grads[name], g, rtol=1e-12, atol=1e-12), name


def test_mpm_rejects_fusion_rows_that_are_not_the_mask_rows():
    cfg, params, images, masked, img_of = phrase_batch_setup()
    image = md.encode_image(np.stack(images), params, cfg)
    phrase = md.encode_text([m.token_ids for m in masked], params, cfg)
    mask_rows = [m.mask_index + 1 for m in masked]
    fused = md.cross_encode(phrase, image, params, cfg, image_index=img_of,
                            rows=mask_rows)
    ls.masked_phrase_loss(fused, masked, params)
    with pytest.raises(ValueError, match="reads rows"):
        ls.masked_phrase_loss(fused, masked[::-1], params)


def test_traced_last_layer_gives_the_unpruned_losses():
    """With the traced layer last, that layer computes every row for its
    trace and then selects the rows the caller reads: the fusion holds the
    [MASK] rows, and they and both phrase losses are those of the full pass,
    bit for bit."""
    cfg, params, images, masked, img_of = phrase_batch_setup(bidiratt_layer=2)
    assert cfg.bidiratt_layer == cfg.n_cross_layers
    mask_rows = [m.mask_index + 1 for m in masked]
    runs = []
    for rows in (mask_rows, None):
        image = md.encode_image(np.stack(images), params, cfg)
        phrase = md.encode_text([m.token_ids for m in masked], params, cfg)
        fused = md.cross_encode(phrase, image, params, cfg, trace_layer=cfg.bidiratt_layer,
                                image_index=img_of, rows=rows)
        biatt, _ = la.local_alignment_loss(image, phrase, fused, mask_rows, params, cfg,
                                           image_index=img_of)
        runs.append((fused, biatt))
    (fused, biatt), (full, want_biatt) = runs
    want = selected(full, mask_rows)
    assert fused.rows == mask_rows
    assert np.array_equal(fused.reps.data, want.reps.data)
    assert np.array_equal(biatt.data, want_biatt.data)
    assert np.array_equal(ls.masked_phrase_loss(fused, masked, params).data,
                          ls.masked_phrase_loss(want, masked, params).data)


def test_pooling_by_image_index_matches_select_and_pool():
    """Pooling the image stack by index equals pooling a per-pair copy of
    the images, in value and in the gradient of the stack, within 1e-12."""
    rng = Rng(11)
    stack = Tensor(rng.normal((3, 5, 4)), requires_grad=True)
    index = [2, 0, 2, 1]
    w = stochastic_rows(rng.normal((4, 5)))
    probe = Tensor(rng.normal((4, 4)))
    pooled = la.weighted_pool(w, md.EncoderOutput(stack), image_index=index)
    got_grad = nx.backward(nx.sum_all(nx.mul(pooled, probe)))[stack]
    # the per-pair copy, pooled as one product per pair
    patch = w[:, 1:] / w[:, 1:].sum(axis=1, keepdims=True)
    pool = np.concatenate([np.zeros((4, 1)), patch], axis=1)
    want = nx.concat([nx.linear(Tensor(pool[b:b + 1]), nx.gather_rows(stack, i))
                      for b, i in enumerate(index)])
    want_grad = nx.backward(nx.sum_all(nx.mul(want, probe)))[stack]
    assert np.allclose(pooled.data, want.data, rtol=1e-12, atol=1e-12)
    assert np.allclose(got_grad, want_grad, rtol=1e-12, atol=1e-12)
    with pytest.raises(nx.ShapeError):
        la.weighted_pool(w, md.EncoderOutput(stack), image_index=[0, 1, 3, 0])
