"""AdamW, cosine learning-rate schedule, and the two-stage training loop.

:func:`train_step` is the one place the training objective is built: stage 1
optimizes the contrastive and matching terms only; stage 2 adds the triplet,
local-alignment, and masked-phrase terms. The finite-difference check of the
total (``gradcheck.check_total``) differentiates this function itself. Each
stage's learning-rate schedule spans its epochs times the batches
``make_batches`` gives per epoch. The momentum shadows are updated after
every optimizer step and are never touched by the optimizer. Runs are
bit-for-bit reproducible from the seed.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

from . import losses as ls
from . import model as md
from . import numerics as nx
from .data import Batch, DataConfig, Dataset, make_batches
from .local_align import local_alignment_loss
from .numerics import Rng
from .textproc import TextPipeline

LOG_COLUMNS = ("step", "lr", "itc", "itm", "tri", "biatt", "mpm", "total")


class NumericalError(RuntimeError):
    """Training hit NaN/Inf in a loss or gradient."""


@dataclasses.dataclass
class TrainConfig:
    stage1_epochs: int = 30
    stage2_epochs: int = 15
    base_lr: float = 1e-3
    warmup_lr: float = 1e-6
    warmup_frac: float = 0.1     # fraction of each stage spent ramping up
    batch_size: int = 8
    triplet_margin: float = 0.6
    momentum_coeff: float = 0.995
    queue_size: int = 256
    seed: int = 0
    weight_decay: float = 0.01
    max_grad_norm: float = 0.0   # 0 disables clipping
    triplet_direction: str = "standard"   # or "printed"
    neg_sampling: str = "hard"            # or "uniform"
    enable_triplet: bool = True
    enable_biatt: bool = True
    enable_mpm: bool = True

    def validate(self) -> None:
        if min(self.stage1_epochs, self.stage2_epochs) < 0:
            raise ValueError("epoch counts must be nonnegative")
        if min(self.base_lr, self.warmup_lr) <= 0:
            raise ValueError("learning rates must be positive")
        if self.triplet_margin < 0:
            raise ValueError("triplet margin must be nonnegative")
        if not 0.0 <= self.momentum_coeff < 1.0:
            raise ValueError("momentum coefficient must lie in [0, 1)")
        if self.queue_size < 1 or self.batch_size < 1:
            raise ValueError("queue and batch sizes must be positive")
        if self.triplet_direction not in ("standard", "printed"):
            raise ValueError("triplet_direction must be standard or printed")
        if self.neg_sampling not in ("hard", "uniform"):
            raise ValueError("neg_sampling must be hard or uniform")


# ---------------------------------------------------------------------------
# optimizer


@dataclasses.dataclass
class OptimState:
    m: dict
    v: dict
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: md.Params) -> "OptimState":
        return cls(m={n: np.zeros_like(t.data) for n, t in params.named()},
                   v={n: np.zeros_like(t.data) for n, t in params.named()})


def adamw_step(params: md.Params, state: OptimState, lr: float,
               weight_decay: float) -> None:
    """Decoupled weight decay (matrices only), then Adam with bias correction.

    Momentum shadows are not parameters and are never visited here.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.named():
        g = p.grad
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient on parameter {name}")
        if weight_decay and p.data.ndim >= 2:
            p.data *= 1.0 - lr * weight_decay
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def clip_gradients(params: md.Params, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    total = 0.0
    for _, p in params.named():
        total += float((p.grad ** 2).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for _, p in params.named():
            p.grad *= scale
    return norm


def cosine_lr(step: int, total_steps: int, base_lr: float, warmup_steps: int,
              warmup_lr: float) -> float:
    """Linear ramp from warmup_lr to base_lr, then cosine decay to zero."""
    if step < 0:
        raise ValueError("step must be nonnegative")
    if warmup_steps > 0 and step < warmup_steps:
        return warmup_lr + (base_lr - warmup_lr) * step / warmup_steps
    span = max(1, total_steps - warmup_steps)
    progress = min(1.0, (step - warmup_steps) / span)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


# ---------------------------------------------------------------------------
# training


@dataclasses.dataclass
class StepDiagnostics:
    weight_sums: list            # per phrase: sum of the pooling weight vector


@dataclasses.dataclass
class TrainResult:
    params: md.Params
    momentum: md.MomentumState
    queue: ls.QueueState
    log_rows: list
    diagnostics: list
    checkpoints: dict


def train_step(batch: Batch, stage: int, params: md.Params,
               momentum: md.MomentumState, queue: ls.QueueState,
               model_cfg: md.ModelConfig, cfg: TrainConfig, rng: Rng):
    """One forward pass of the training objective; returns (total, breakdown,
    diagnostics). Both stages build ITC and ITM; stage 2 adds the triplet,
    local-alignment and masked-phrase terms its ``enable_*`` switches allow.

    The queue receives the batch's momentum embeddings. The caller runs
    backward on ``total`` and steps the optimizer.
    """
    n = len(batch.images)
    img_out, txt_out, img_emb, txt_emb = md.coarse_embeddings(
        batch.images, batch.token_ids, params, model_cfg)
    with nx.no_grad():
        # the shadows carry the live names of the encoders and projections
        _, _, mom_img, mom_txt = md.coarse_embeddings(
            batch.images, batch.token_ids, md.Params(momentum.shadow), model_cfg)
    tau = nx.exp(params["temp.log_tau"])
    itc, p_i2t, p_t2i = ls.itc_loss(img_emb, txt_emb, mom_img.data,
                                    mom_txt.data, queue, tau)
    queue.enqueue(mom_img.data, mom_txt.data)

    coarse = img_emb.data @ txt_emb.data.T
    neg_txt, neg_img = ls.sample_negatives(batch.identities, coarse, rng,
                                           mode=cfg.neg_sampling)
    # (text, image, label): positives, then image i with a non-matching
    # text at n + i, then text j with a non-matching image at 2n + j
    pairs = ([(i, i, 1.0) for i in range(n)]
             + [(j, i, 0.0) for i, j in enumerate(neg_txt)]
             + [(j, i, 0.0) for j, i in enumerate(neg_img)])
    fused = md.cross_encode(txt_out.select([t for t, _, _ in pairs]), img_out,
                            params, model_cfg, image_index=[i for _, i, _ in pairs])
    logits = ls.fine_similarity(fused.cls, params["itm.w"])
    itm = ls.itm_loss(logits, [label for _, _, label in pairs])

    tri = None
    if stage != 1 and cfg.enable_triplet and neg_txt:
        pos, neg_t, neg_i = (nx.gather_rows(logits, range(k * n, (k + 1) * n))
                             for k in range(3))
        tri = ls.fusion_triplet_loss(pos, neg_i, neg_t, margin=cfg.triplet_margin,
                                     direction=cfg.triplet_direction)

    biatt = mpm = None
    weight_sums = []
    # (image index, phrase, masked phrase), batch item by item
    items = [(i, phrase, masked) for i in range(n)
             for phrase, masked in batch.phrase_pairs[i]]
    if stage != 1 and (cfg.enable_biatt or cfg.enable_mpm) and items:
        need_trace = cfg.enable_biatt and model_cfg.biatt_phrase == "masked"
        trace_layer = model_cfg.bidiratt_layer if need_trace else None
        masked = [m for _, _, m in items]
        image_ids = [i for i, _, _ in items]
        phrases = md.encode_text([m.token_ids for m in masked], params, model_cfg)
        fused = md.cross_encode(phrases, img_out, params, model_cfg,
                                trace_layer=trace_layer, image_index=image_ids)
        if cfg.enable_biatt:
            # the local stream reads the masked phrases' own pass, or a
            # separate traced pass over the clean phrases
            biatt_phrases, biatt_fused = phrases, fused
            if model_cfg.biatt_phrase == "clean":
                biatt_phrases = md.encode_text(
                    [phrase.token_ids for _, phrase, _ in items], params, model_cfg)
                biatt_fused = md.cross_encode(biatt_phrases, img_out, params,
                                              model_cfg,
                                              trace_layer=model_cfg.bidiratt_layer,
                                              image_index=image_ids)
            # the pooling reads each pair's image rows
            biatt, weights = local_alignment_loss(
                img_out.select(image_ids), biatt_phrases, biatt_fused,
                [m.mask_index + 1 for m in masked], params, model_cfg,
                target_id=[m.target_id for m in masked])
            weight_sums = weights.w.sum(axis=-1).tolist()
        if cfg.enable_mpm:
            mpm = ls.masked_phrase_loss(fused, masked, params,
                                        positions=model_cfg.mpm_positions)

    total, breakdown = ls.total_loss(itc, itm, tri, biatt, mpm,
                                     phrase_scale=1.0 / n,
                                     p_i2t=p_i2t, p_t2i=p_t2i)
    return total, breakdown, StepDiagnostics(weight_sums=weight_sums)


def train(model_cfg: md.ModelConfig, cfg: TrainConfig, dataset: Dataset,
          pipeline: TextPipeline, out_dir=None) -> TrainResult:
    """Run both stages; optionally write per-stage checkpoints and the CSV
    training log under ``out_dir``."""
    cfg.validate()
    model_cfg.validate()
    dcfg = dataset.config
    if (dcfg.patch_rows, dcfg.patch_cols, dcfg.patch_pixels) != \
            (model_cfg.patch_rows, model_cfg.patch_cols, model_cfg.patch_pixels):
        raise ValueError("model patch geometry does not match the dataset")

    rng = Rng(cfg.seed)
    init_rng, batch_rng, neg_rng = rng.child(), rng.child(), rng.child()
    params = md.init_params(model_cfg, init_rng)
    momentum = md.MomentumState.from_params(params, cfg.momentum_coeff)
    queue = ls.QueueState(cfg.queue_size, model_cfg.proj_dim)
    optim = OptimState.for_params(params)

    records = dataset.train_records()
    effective_batch = min(cfg.batch_size, len({r.identity for r in records}))
    log_rows: list = []
    diagnostics: list = []
    checkpoints: dict = {}
    global_step = 0

    for stage, epochs in ((1, cfg.stage1_epochs), (2, cfg.stage2_epochs)):
        stage_step = 0
        for _ in range(epochs):
            batches = make_batches(records, effective_batch, pipeline, batch_rng)
            # every epoch of a stage has as many batches, whatever the draw
            total_steps = epochs * len(batches)
            warmup = int(round(cfg.warmup_frac * total_steps))
            for batch in batches:
                lr = cosine_lr(stage_step, total_steps, cfg.base_lr, warmup,
                               cfg.warmup_lr)
                try:
                    total, breakdown, diag = train_step(
                        batch, stage, params, momentum, queue, model_cfg, cfg,
                        neg_rng)
                except nx.NonFiniteError as e:
                    raise NumericalError(
                        f"non-finite loss at step {global_step}: {e}") from e
                if not math.isfinite(breakdown.total):
                    raise NumericalError(
                        f"non-finite loss at step {global_step}: {breakdown}")
                nx.backward(total)
                if cfg.max_grad_norm > 0:
                    clip_gradients(params, cfg.max_grad_norm)
                adamw_step(params, optim, lr, cfg.weight_decay)
                md.momentum_update(params, momentum)
                params.zero_grads()
                log_rows.append({"step": global_step, "lr": lr,
                                 "itc": breakdown.itc, "itm": breakdown.itm,
                                 "tri": breakdown.tri, "biatt": breakdown.biatt,
                                 "mpm": breakdown.mpm, "total": breakdown.total})
                diagnostics.append(diag)
                stage_step += 1
                global_step += 1
        if out_dir is not None:
            path = Path(out_dir) / f"stage{stage}.ckpt"
            md.save_checkpoint(path, md.params_state(params, momentum))
            checkpoints[stage] = path

    if out_dir is not None:
        write_log_csv(Path(out_dir) / "training_log.csv", log_rows)
    return TrainResult(params, momentum, queue, log_rows, diagnostics,
                       checkpoints)


def write_log_csv(path, log_rows) -> None:
    lines = [",".join(LOG_COLUMNS)]
    for row in log_rows:
        lines.append(",".join(f"{row[c]:.12g}" if c != "step" else str(row[c])
                              for c in LOG_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
