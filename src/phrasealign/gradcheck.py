"""Finite-difference validation of every loss in the artifact.

Each per-loss check builds one loss term on a small forward graph;
:func:`check_total` runs ``trainer.train_step`` itself, so it checks the
objective training optimizes, whatever terms that step builds. Every check
replaces one named parameter by the probe tensor and compares the autodiff
gradient against central differences. The suite backs the finite-difference
tests (``tests/test_gradcheck.py``).
"""

from __future__ import annotations

import copy

import numpy as np

from . import data, losses, model, trainer
from . import numerics as nx
from .numerics import Rng, Tensor
from .local_align import local_alignment_loss, pooled_alignment_loss
from .textproc import MaskedPhrase, TextPipeline, MASK_ID

TOLERANCE = 1e-6
SUITE_EPS = 1e-3  # roundoff dominates the deep graphs at smaller steps


def finite_diff_param(params: model.Params, name: str, build_loss,
                      eps: float = SUITE_EPS) -> float:
    """Central-difference check of d(loss)/d(params[name]).

    ``build_loss`` is a zero-argument callable that constructs the scalar
    loss from the current parameters; the named parameter is temporarily
    replaced by the probe leaf on every evaluation.
    """
    def f(x: Tensor) -> Tensor:
        with params.substituted(name, x):
            return build_loss()

    params.zero_grads()
    try:
        return nx.finite_diff_check(f, params[name], eps=eps)
    finally:
        params.zero_grads()


# ---------------------------------------------------------------------------
# toy fixtures


def _toy_config(vocab_size: int, max_text_len: int) -> model.ModelConfig:
    return model.ModelConfig(d=8, heads=2, n_self_layers=1, n_cross_layers=2,
                             bidiratt_layer=1, proj_dim=4, patch_rows=2,
                             patch_cols=2, patch_pixels=6, max_text_len=max_text_len,
                             vocab_size=vocab_size)


def _toy_setup(seed: int, max_text_len: int = 12):
    pipeline = TextPipeline()
    cfg = _toy_config(len(pipeline.vocab), max_text_len)
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
# Every check encodes its images and its texts in one call each, picks the
# pairs' text rows by index and passes the pairs' image index to
# ``cross_encode``, as ``trainer.train_step`` does; a repeated image scatters
# its key and value gradients back to one entry.


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
        return losses.itc_loss(img, txt, mom_img, mom_txt, queue, tau)

    errs = [finite_diff_param(params, "temp.log_tau", build),
            finite_diff_param(params, "txt_self0.ln2.g", build),
            finite_diff_param(params, "img_self0.ffn.b2", build),
            finite_diff_param(params, "embed.patch.b", build)]
    return max(errs)


def check_itm(seed: int) -> float:
    _, cfg, params, _, images, texts = _toy_setup(seed)

    def build():
        img, txt = _encode(images, texts, params, cfg)
        fused = model.cross_encode(txt.select([0, 1]), img, params, cfg,
                                   image_index=[0, 0])
        return losses.itm_loss(losses.fine_similarity(fused.cls, params["itm.w"]),
                               [1.0, 0.0])

    # the cross keys and the image encoder reach the loss through the
    # per-pair gather of the shared image's keys and values
    errs = [finite_diff_param(params, "itm.w", build),
            finite_diff_param(params, "cross1.ln3.g", build),
            finite_diff_param(params, "cross0.ffn.w2", build),
            finite_diff_param(params, "cross0.cross.wk", build),
            finite_diff_param(params, "img_self0.ln2.g", build)]
    return max(errs)


def check_triplet(seed: int) -> float:
    _, cfg, params, _, images, texts = _toy_setup(seed)

    def build():
        # (text, image) pairs: the positive (0, 0), then a negative image
        # (0, 1) and a negative text (1, 0)
        img, txt = _encode(images, texts, params, cfg)
        fused = model.cross_encode(txt.select([0, 0, 1]), img, params, cfg,
                                   image_index=[0, 1, 0])
        logits = losses.fine_similarity(fused.cls, params["itm.w"])
        pos, neg_i, neg_t = (nx.gather_rows(logits, k) for k in range(3))
        return losses.fusion_triplet_loss(pos, neg_i, neg_t, margin=0.6)

    errs = [finite_diff_param(params, "itm.w", build),
            finite_diff_param(params, "cross1.ln3.g", build),
            finite_diff_param(params, "cross1.ffn.b2", build),
            finite_diff_param(params, "cross1.cross.wv", build),
            finite_diff_param(params, "img_self0.ffn.b2", build)]
    return max(errs)


def check_local_align(seed: int) -> float:
    pipeline, cfg, params, rng, images, _ = _toy_setup(seed)
    masked = _masked_phrases(pipeline, rng)
    mask_rows = [m.mask_index + 1 for m in masked]

    def phrase_pass():
        img, phr = _encode(images, [m.token_ids for m in masked], params, cfg)
        fused = model.cross_encode(phr, img, params, cfg,
                                   trace_layer=cfg.bidiratt_layer, image_index=[0, 1])
        return img.select([0, 1]), phr, fused

    def build():
        loss, _ = local_alignment_loss(*phrase_pass(), mask_rows, params, cfg)
        return nx.sum_all(loss)

    # the projections do not feed the attention trace, so the full loss is
    # checkable through them as-is; the cosine's worst gradient elements are
    # truncation-limited, hence the smaller step
    errs = [finite_diff_param(params, "proj.txt.w", build, eps=3e-4),
            finite_diff_param(params, "proj.img.w", build, eps=3e-4)]

    # encoder parameters do feed the trace; the pooling weights are constants
    # by definition, so the probe holds them at their unperturbed values
    with nx.no_grad():
        _, frozen = local_alignment_loss(*phrase_pass(), mask_rows, params, cfg)

    def build_fixed_w():
        image, phr, _ = phrase_pass()
        return nx.sum_all(pooled_alignment_loss(frozen.w, image, phr, params))

    errs.append(finite_diff_param(params, "txt_self0.attn.wv", build_fixed_w))
    errs.append(finite_diff_param(params, "img_self0.ln2.g", build_fixed_w))
    errs.append(finite_diff_param(params, "img_self0.ffn.b2", build_fixed_w))
    return max(errs)


def check_mpm(seed: int) -> float:
    pipeline, cfg, params, rng, images, _ = _toy_setup(seed)
    masked = _masked_phrases(pipeline, rng)

    def build():
        img, phr = _encode(images, [m.token_ids for m in masked], params, cfg)
        fused = model.cross_encode(phr, img, params, cfg, image_index=[0, 1])
        return nx.sum_all(losses.masked_phrase_loss(fused, masked, params))

    errs = [finite_diff_param(params, "mpm.b2", build),
            finite_diff_param(params, "mpm.b1", build),
            finite_diff_param(params, "mpm.w2", build),
            finite_diff_param(params, "cross1.ln3.g", build)]
    return max(errs)


def check_total(seed: int) -> float:
    """The stage-2 objective as training builds it: ``trainer.train_step`` on
    one batch of a 3-identity toy corpus, with every term enabled.

    Each evaluation gets a fresh copy of a pre-filled queue and a fresh
    negative-sampling stream, and uniform sampling keeps the drawn pairs
    independent of the probe. No probed parameter feeds the traced layer, so
    the pooling weights, constants by definition, stay fixed.
    """
    # the corpus captions are longer than the other checks' texts
    pipeline, cfg, params, rng, _, _ = _toy_setup(seed, max_text_len=20)
    corpus = data.generate_dataset(
        data.DataConfig(n_identities=3, patch_rows=cfg.patch_rows,
                        patch_cols=cfg.patch_cols, patch_pixels=cfg.patch_pixels), rng)
    train_cfg = trainer.TrainConfig(batch_size=3, queue_size=8, neg_sampling="uniform")
    batch = data.make_batches(corpus.train_records(), train_cfg.batch_size,
                              pipeline, rng)[0]
    momentum = model.MomentumState.from_params(params, train_cfg.momentum_coeff)
    fill = Rng(seed + 3)
    queue = losses.QueueState(train_cfg.queue_size, cfg.proj_dim)
    queue.enqueue(fill.normal((3, cfg.proj_dim)), fill.normal((3, cfg.proj_dim)))

    def build():
        total, _ = trainer.train_step(batch, 2, params, momentum,
                                      copy.deepcopy(queue), cfg, train_cfg,
                                      Rng(seed + 4))
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
