"""Finite-difference validation of every loss in the artifact.

Each check rebuilds a small forward graph with one named parameter replaced
by the probe tensor and compares the autodiff gradient against central
differences. The suite backs the finite-difference tests
(``tests/test_gradcheck.py``).
"""

from __future__ import annotations

import numpy as np

from . import losses, model
from . import numerics as nx
from .numerics import Rng, Tensor
from .local_align import coarse_similarity, local_alignment_loss, weighted_pool
from .textproc import MaskedPhrase, TextPipeline, MASK_ID

TOLERANCE = 1e-6
SUITE_EPS = 1e-4  # roundoff dominates the deep graphs at smaller steps


def finite_diff_param(params: model.Params, name: str, build_loss,
                      eps: float = SUITE_EPS) -> float:
    """Central-difference check of d(loss)/d(params[name]).

    ``build_loss`` is a zero-argument callable that constructs the scalar
    loss from the current parameters; the named parameter is temporarily
    replaced by the probe leaf on every evaluation.
    """
    original = params[name]

    def f(x: Tensor) -> Tensor:
        params._tensors[name] = x
        try:
            return build_loss()
        finally:
            params._tensors[name] = original

    params.zero_grads()
    try:
        return nx.finite_diff_check(f, original, eps=eps)
    finally:
        params.zero_grads()


# ---------------------------------------------------------------------------
# toy fixtures


def _toy_config(vocab_size: int) -> model.ModelConfig:
    return model.ModelConfig(d=8, heads=2, n_self_layers=1, n_cross_layers=2,
                             bidiratt_layer=1, proj_dim=4, patch_rows=2,
                             patch_cols=2, patch_pixels=6, max_text_len=12,
                             vocab_size=vocab_size)


def _toy_setup(seed: int):
    pipeline = TextPipeline()
    cfg = _toy_config(len(pipeline.vocab))
    rng = Rng(seed)
    params = model.init_params(cfg, rng)
    # widen the init so gradients sit comfortably above the FD noise floor;
    # the vocabulary classifier stays at init scale or its softmax saturates
    # and the tail gradients fall back into the noise
    for name, t in params.named():
        if t.data.ndim >= 2 and name != "mpm.w2":
            t.data *= 12.0
    images = [rng.uniform((cfg.n_patches, cfg.patch_pixels)) for _ in range(2)]
    texts = [pipeline.encode("a red shirt and blue pants ."),
             pipeline.encode("a green coat and white shorts .")]
    return pipeline, cfg, params, rng, images, texts


def _masked_phrases(pipeline, rng) -> list[MaskedPhrase]:
    """Two phrases of unequal length, one token of each masked, so that a
    phrase batch carries padding."""
    out = []
    for text in ("a red shirt", "a dark blue striped jacket"):
        ids = list(pipeline.phrases(text)[0].token_ids)
        pos = rng.integer(len(ids))
        target = ids[pos]
        ids[pos] = MASK_ID
        out.append(MaskedPhrase(tuple(ids), pos, target))
    return out


# ---------------------------------------------------------------------------
# per-loss checks; each returns the max relative error over probed parameters.
# Every check encodes its images and its texts in one call each and picks the
# pairs' rows by index, as ``trainer.train_step`` does.


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _encode(images, texts, params, cfg):
    return (model.encode_image(np.stack(images), params, cfg),
            model.encode_text(texts, params, cfg))


def check_itc(seed: int) -> float:
    _, cfg, params, _, images, texts = _toy_setup(seed)
    mom = Rng(seed + 1)
    mom_img = _unit_rows(mom.normal((2, cfg.proj_dim)))
    mom_txt = _unit_rows(mom.normal((2, cfg.proj_dim)))
    fill = Rng(seed + 2)
    queue = losses.QueueState(8, cfg.proj_dim)
    queue.enqueue(fill.normal((3, cfg.proj_dim)), fill.normal((3, cfg.proj_dim)))

    def build():
        _, _, img, txt = model.coarse_embeddings(images, texts, params, cfg)
        tau = nx.exp(params["temp.log_tau"])
        loss, _, _ = losses.itc_loss(img, txt, mom_img, mom_txt, queue, tau)
        return loss

    errs = [finite_diff_param(params, "temp.log_tau", build),
            finite_diff_param(params, "txt_self0.ln2.g", build),
            finite_diff_param(params, "img_self0.ffn.b2", build),
            finite_diff_param(params, "embed.patch.b", build)]
    return max(errs)


def check_itm(seed: int) -> float:
    _, cfg, params, _, images, texts = _toy_setup(seed)

    def build():
        img, txt = _encode(images, texts, params, cfg)
        fused = model.cross_encode(txt.select([0, 1]), img.select([0, 0]), params, cfg)
        return losses.itm_loss(losses.fine_similarity(fused.cls, params["itm.w"]),
                               [1.0, 0.0])

    errs = [finite_diff_param(params, "itm.w", build),
            finite_diff_param(params, "cross1.ln3.g", build),
            finite_diff_param(params, "cross0.ffn.w2", build)]
    return max(errs)


def _triplet(img, txt, params, cfg):
    """ITM logits and triplet loss of (text, image) pairs: the positive
    (0, 0), then a negative image (0, 1) and a negative text (1, 0)."""
    fused = model.cross_encode(txt.select([0, 0, 1]), img.select([0, 1, 0]), params, cfg)
    logits = losses.fine_similarity(fused.cls, params["itm.w"])
    pos, neg_i, neg_t = (nx.gather_rows(logits, k) for k in range(3))
    return logits, losses.fusion_triplet_loss(pos, neg_i, neg_t, margin=0.6)


def check_triplet(seed: int) -> float:
    _, cfg, params, _, images, texts = _toy_setup(seed)

    def build():
        return _triplet(*_encode(images, texts, params, cfg), params, cfg)[1]

    errs = [finite_diff_param(params, "itm.w", build),
            finite_diff_param(params, "cross1.ln3.g", build),
            finite_diff_param(params, "cross1.ffn.b2", build)]
    return max(errs)


def check_local_align(seed: int) -> float:
    pipeline, cfg, params, rng, images, _ = _toy_setup(seed)
    masked = _masked_phrases(pipeline, rng)
    mask_rows = [m.mask_index + 1 for m in masked]

    def phrase_pass():
        img, phr = _encode(images, [m.token_ids for m in masked], params, cfg)
        image = img.select([0, 1])
        fused = model.cross_encode(phr, image, params, cfg,
                                   trace_layer=cfg.bidiratt_layer)
        return image, phr, fused

    def build():
        loss, _ = local_alignment_loss(*phrase_pass(), mask_rows, params, cfg)
        return nx.sum_all(loss)

    # the projections do not feed the attention trace, so the full loss is
    # checkable through them as-is; the cosine's worst gradient elements are
    # truncation-limited, hence the smaller step
    errs = [finite_diff_param(params, "proj.txt.w", build, eps=3e-5),
            finite_diff_param(params, "proj.img.w", build, eps=3e-5)]

    # encoder parameters do feed the trace; the pooling weights are constants
    # by definition, so the probe holds them at their unperturbed values
    with nx.no_grad():
        _, frozen = local_alignment_loss(*phrase_pass(), mask_rows, params, cfg)

    def build_fixed_w():
        image, phr, _ = phrase_pass()
        pooled = weighted_pool(frozen.w, image)
        sim = coarse_similarity(pooled, phr.cls, params["proj.img.w"],
                                params["proj.txt.w"])
        return nx.sum_all(nx.sub(Tensor(1.0), sim))

    errs.append(finite_diff_param(params, "txt_self0.attn.wv", build_fixed_w))
    errs.append(finite_diff_param(params, "img_self0.ln2.g", build_fixed_w))
    errs.append(finite_diff_param(params, "img_self0.ffn.b2", build_fixed_w))
    return max(errs)


def check_mpm(seed: int) -> float:
    pipeline, cfg, params, rng, images, _ = _toy_setup(seed)
    masked = _masked_phrases(pipeline, rng)

    def build():
        img, phr = _encode(images, [m.token_ids for m in masked], params, cfg)
        fused = model.cross_encode(phr, img.select([0, 1]), params, cfg)
        return nx.sum_all(losses.masked_phrase_loss(fused, masked, params))

    errs = [finite_diff_param(params, "mpm.b2", build),
            finite_diff_param(params, "mpm.b1", build),
            finite_diff_param(params, "mpm.w2", build),
            finite_diff_param(params, "cross1.ln3.g", build)]
    return max(errs)


def check_total(seed: int) -> float:
    pipeline, cfg, params, rng, images, texts = _toy_setup(seed)
    masked = _masked_phrases(pipeline, rng)
    mom = Rng(seed + 3)
    mom_img = _unit_rows(mom.normal((2, cfg.proj_dim)))
    mom_txt = _unit_rows(mom.normal((2, cfg.proj_dim)))
    queue = losses.QueueState(8, cfg.proj_dim)

    def build():
        img, txt, img_emb, txt_emb = model.coarse_embeddings(images, texts, params, cfg)
        tau = nx.exp(params["temp.log_tau"])
        itc, p_i2t, p_t2i = losses.itc_loss(img_emb, txt_emb, mom_img, mom_txt,
                                            queue, tau)
        logits, tri = _triplet(img, txt, params, cfg)
        itm = losses.itm_loss(logits, [1.0, 0.0, 0.0])
        image = img.select([0, 1])
        phrase = model.encode_text([m.token_ids for m in masked], params, cfg)
        fused = model.cross_encode(phrase, image, params, cfg,
                                   trace_layer=cfg.bidiratt_layer)
        biatt, _ = local_alignment_loss(image, phrase, fused,
                                        [m.mask_index + 1 for m in masked], params, cfg)
        mpm = losses.masked_phrase_loss(fused, masked, params)
        total, _ = losses.total_loss(itc, itm, tri, biatt, mpm, stage=2,
                                     p_i2t=p_i2t, p_t2i=p_t2i)
        return total

    errs = [finite_diff_param(params, "itm.w", build),
            finite_diff_param(params, "cross1.ln3.g", build),
            finite_diff_param(params, "temp.log_tau", build),
            finite_diff_param(params, "mpm.b2", build)]
    return max(errs)


CHECKS = {
    "itc": check_itc,
    "itm": check_itm,
    "triplet": check_triplet,
    "local_align": check_local_align,
    "mpm": check_mpm,
    "total": check_total,
}


def run_suite(seeds) -> dict:
    """Max relative FD error per loss over the given seeds."""
    return {name: max(fn(seed) for seed in seeds)
            for name, fn in CHECKS.items()}
