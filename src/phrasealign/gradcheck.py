"""Finite-difference validation of every loss in the artifact.

Each per-loss check builds one loss term on a small forward graph;
:func:`check_total` runs ``trainer.train_step`` itself, so it checks the
objective training optimizes, whatever terms that step builds; every
evaluation replays the same step on a ``TrainState.replica``. Every
per-loss check replaces one named parameter by the probe tensor and
compares the autodiff gradient against central differences, entry by entry.
The directional checks move every parameter at once along a few random
directions and compare the gradient's inner product with each against the
same stencil along it, so a tensor no per-entry check probes is covered too.
The suite backs the finite-difference tests (``tests/test_gradcheck.py``).
"""

from __future__ import annotations

import numpy as np

from . import data, losses, model, trainer
from . import numerics as nx
from .numerics import Rng, Tensor
from .local_align import local_alignment_loss, pooled_alignment_loss
from .textproc import MaskedPhrase, TextPipeline, mask_phrase

TOLERANCE = 1e-6
SUITE_EPS = 1e-3  # roundoff dominates the deep graphs at smaller steps
DIRECTION_EPS = 3e-4  # a step along v, which is scaled entrywise to theta
N_DIRECTIONS = 4


def _worst(errs) -> float:
    """The largest of the errors, or NaN if any is NaN: Python's ``max``
    keeps an earlier value over a later NaN."""
    return float(np.max(errs))


def finite_diff_param(params: dict, name: str, build_loss,
                      eps: float = SUITE_EPS) -> float:
    """Central-difference check of d(loss)/d(params[name]).

    ``build_loss`` is a zero-argument callable that constructs the scalar
    loss from the current parameters; the named parameter is replaced by
    the probe leaf for each evaluation and restored after it, even when
    ``build_loss`` raises.
    """
    original = params[name]

    def f(x: Tensor) -> Tensor:
        params[name] = x
        try:
            return build_loss()
        finally:
            params[name] = original

    return nx.finite_diff_check(f, original, eps=eps)


def finite_diff_directions(params: dict, build_loss, rng: Rng) -> float:
    """Directional check of the gradient over every parameter at once.

    Each of ``N_DIRECTIONS`` directions v draws a normal entry per parameter
    entry, scaled by max(|theta|, 1e-2), so every tensor moves in proportion
    to its size. The autodiff value <grad, v> is compared with
    :func:`numerics.central_difference` taken along v, the loss evaluated
    with every parameter set to theta + s v. Returns the max relative error,
    with the denominator max(|analytic|, |numeric|, 1e-8), over the
    directions. The parameters are restored bit for bit.
    """
    tensors = list(params.values())
    theta = [t.data.copy() for t in tensors]
    grads = nx.backward(build_loss())

    def f(v, s: float) -> float:
        for t, base, step in zip(tensors, theta, v):
            t.data[...] = base + s * step
        with nx.no_grad():
            return float(build_loss().data)

    errs = []
    try:
        for _ in range(N_DIRECTIONS):
            v = [rng.normal(base.shape) * np.maximum(np.abs(base), 1e-2)
                 for base in theta]
            analytic = sum(float(np.vdot(grads[t], step))
                           for t, step in zip(tensors, v) if t in grads)
            numeric = nx.central_difference(lambda s: f(v, s), DIRECTION_EPS)
            errs.append(abs(analytic - numeric) /
                        max(abs(analytic), abs(numeric), 1e-8))
    finally:
        for t, base in zip(tensors, theta):
            t.data[...] = base
    return _worst(errs)


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
    for name, t in params.items():
        if t.data.ndim >= 2 and name != "mpm.w2":
            t.data *= 12.0
    images = [rng.uniform((cfg.n_patches, cfg.patch_pixels)) for _ in range(2)]
    texts = [pipeline.encode("a red shirt and blue pants ."),
             pipeline.encode("a green coat and white shorts .")]
    return pipeline, cfg, params, rng, images, texts


def _masked_phrases(pipeline, rng) -> list[MaskedPhrase]:
    """Two phrases of unequal length, one token of each masked, so that a
    phrase batch carries padding."""
    return [mask_phrase(pipeline.phrases(text)[0], rng)
            for text in ("a red shirt", "a dark blue striped jacket")]


# ---------------------------------------------------------------------------
# per-loss checks; each returns the max relative error over probed parameters.
# Every check encodes its images and its texts in one call each and passes
# the pairs' text and image indices to ``cross_encode``, as
# ``trainer.train_step`` does; a repeated image scatters its key and value
# gradients back to one entry, a repeated text its rows' gradients.


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
    return _worst(errs)


def check_itm(seed: int) -> float:
    _, cfg, params, _, images, texts = _toy_setup(seed)

    def build():
        img, txt = _encode(images, texts, params, cfg)
        fused = model.cross_encode(txt, img, params, cfg, image_index=[0, 0],
                                   text_index=[0, 1])
        return losses.itm_loss(losses.fine_similarity(fused.cls, params["itm.w"]),
                               [1.0, 0.0])

    # the cross keys and the image encoder reach the loss through the
    # per-pair gather of the shared image's keys and values
    errs = [finite_diff_param(params, "itm.w", build),
            finite_diff_param(params, "cross1.ln3.g", build),
            finite_diff_param(params, "cross0.ffn.w2", build),
            finite_diff_param(params, "cross0.cross.wk", build),
            finite_diff_param(params, "img_self0.ln2.g", build)]
    return _worst(errs)


def check_triplet(seed: int) -> float:
    _, cfg, params, _, images, texts = _toy_setup(seed)

    def build():
        # (text, image) pairs: the positive (0, 0), then a negative image
        # (0, 1) and a negative text (1, 0)
        img, txt = _encode(images, texts, params, cfg)
        fused = model.cross_encode(txt, img, params, cfg, image_index=[0, 1, 0],
                                   text_index=[0, 0, 1])
        logits = losses.fine_similarity(fused.cls, params["itm.w"])
        pos, neg_i, neg_t = (nx.gather_rows(logits, k) for k in range(3))
        return losses.fusion_triplet_loss(pos, neg_i, neg_t, margin=0.6)

    errs = [finite_diff_param(params, "itm.w", build),
            finite_diff_param(params, "cross1.ln3.g", build),
            finite_diff_param(params, "cross1.ffn.b2", build),
            finite_diff_param(params, "cross1.cross.wv", build),
            finite_diff_param(params, "img_self0.ffn.b2", build)]
    return _worst(errs)


def _local_align_losses(seed: int):
    """The local-alignment term of two image-phrase pairs: (params, the
    full loss builder, the builder with the pooling weights held at their
    unperturbed values)."""
    pipeline, cfg, params, rng, images, _ = _toy_setup(seed)
    masked = _masked_phrases(pipeline, rng)
    mask_rows = [m.mask_index + 1 for m in masked]
    pairs = [0, 1]

    def phrase_pass():
        img, phr = _encode(images, [m.token_ids for m in masked], params, cfg)
        fused = model.cross_encode(phr, img, params, cfg,
                                   trace_layer=cfg.bidiratt_layer, image_index=pairs)
        return img, phr, fused

    def build():
        loss, _ = local_alignment_loss(*phrase_pass(), mask_rows, params, cfg,
                                       image_index=pairs)
        return nx.sum_all(loss)

    # the pooling weights are constants by definition, so a probe of a
    # parameter that feeds the trace holds them at their unperturbed values
    with nx.no_grad():
        _, frozen = local_alignment_loss(*phrase_pass(), mask_rows, params, cfg,
                                         image_index=pairs)

    def build_fixed_w():
        image, phr = _encode(images, [m.token_ids for m in masked], params, cfg)
        return nx.sum_all(pooled_alignment_loss(frozen.w, image, phr, params, pairs))

    return params, build, build_fixed_w


def check_local_align(seed: int) -> float:
    params, build, build_fixed_w = _local_align_losses(seed)
    # the projections do not feed the attention trace, so the full loss is
    # checkable through them as-is; the cosine's worst gradient elements are
    # truncation-limited, hence the smaller step
    errs = [finite_diff_param(params, "proj.txt.w", build, eps=3e-4),
            finite_diff_param(params, "proj.img.w", build, eps=3e-4)]
    # encoder parameters do feed the trace
    errs.append(finite_diff_param(params, "txt_self0.attn.wv", build_fixed_w))
    errs.append(finite_diff_param(params, "img_self0.ln2.g", build_fixed_w))
    errs.append(finite_diff_param(params, "img_self0.ffn.b2", build_fixed_w))
    return _worst(errs)


def check_mpm(seed: int) -> float:
    pipeline, cfg, params, rng, images, _ = _toy_setup(seed)
    masked = _masked_phrases(pipeline, rng)

    def build():
        img, phr = _encode(images, [m.token_ids for m in masked], params, cfg)
        fused = model.cross_encode(phr, img, params, cfg, image_index=[0, 1],
                                   rows=[m.mask_index + 1 for m in masked])
        return nx.sum_all(losses.masked_phrase_loss(fused, masked, params))

    errs = [finite_diff_param(params, "mpm.b2", build),
            finite_diff_param(params, "mpm.b1", build),
            finite_diff_param(params, "mpm.w2", build),
            finite_diff_param(params, "cross1.ln3.g", build)]
    return _worst(errs)


def _train_step_loss(seed: int, stage: int, **train_over):
    """``trainer.train_step`` of ``stage`` on one batch of a 3-identity toy
    corpus: (params, a builder of its total).

    Each evaluation replays the step on a replica of one state with a
    pre-filled queue, and uniform sampling keeps the drawn pairs independent
    of the parameters."""
    # the corpus captions are longer than the other checks' texts
    pipeline, cfg, params, rng, _, _ = _toy_setup(seed, max_text_len=20)
    corpus = data.generate_dataset(
        data.DataConfig(n_identities=3, patch_rows=cfg.patch_rows,
                        patch_cols=cfg.patch_cols, patch_pixels=cfg.patch_pixels), rng)
    train_cfg = trainer.TrainConfig(batch_size=3, queue_size=8, neg_sampling="uniform",
                                    **train_over)
    state = trainer.TrainState.for_params(params, cfg, train_cfg, rng, Rng(seed + 4))
    batch = data.make_batches(corpus.train_records(), train_cfg.batch_size,
                              pipeline, state.batch_rng)[0]
    fill = Rng(seed + 3)
    state.queue.enqueue(fill.normal((3, cfg.proj_dim)), fill.normal((3, cfg.proj_dim)))

    def build():
        total, _ = trainer.train_step(batch, stage, state.replica(), cfg, train_cfg)
        return total

    return params, build


def check_total(seed: int) -> float:
    """The stage-2 objective as training builds it, with every term enabled.
    No probed parameter feeds the traced layer, so the pooling weights,
    constants by definition, stay fixed."""
    params, build = _train_step_loss(seed, 2)
    errs = [finite_diff_param(params, "itm.w", build),
            finite_diff_param(params, "cross1.ln3.g", build),
            finite_diff_param(params, "temp.log_tau", build),
            finite_diff_param(params, "mpm.b2", build)]
    return _worst(errs)


# ---------------------------------------------------------------------------
# directional checks over every parameter; the directions are drawn from
# their own stream per seed


def check_directions_stage1(seed: int) -> float:
    return finite_diff_directions(*_train_step_loss(seed, 1), Rng(seed + 5))


def check_directions_stage2(seed: int) -> float:
    """The stage-2 step without the local term: a move of the layers up to
    the traced one would move its pooling weights, constants by definition,
    which :func:`check_directions_local_align` holds fixed instead."""
    return finite_diff_directions(*_train_step_loss(seed, 2, enable_biatt=False),
                                  Rng(seed + 5))


def check_directions_local_align(seed: int) -> float:
    params, _, build_fixed_w = _local_align_losses(seed)
    return finite_diff_directions(params, build_fixed_w, Rng(seed + 5))


CHECKS = {
    "itc": check_itc,
    "itm": check_itm,
    "triplet": check_triplet,
    "local_align": check_local_align,
    "mpm": check_mpm,
    "total": check_total,
    "directions_stage1": check_directions_stage1,
    "directions_stage2": check_directions_stage2,
    "directions_local_align": check_directions_local_align,
}


def run_suite(seeds) -> dict:
    """Max relative FD error per loss over the given seeds, NaN if any is."""
    return {name: _worst([fn(seed) for seed in seeds])
            for name, fn in CHECKS.items()}
