"""AdamW, cosine learning-rate schedule, and the two-stage training loop.

:func:`train_step` is the one place the training objective is built: stage 1
optimizes the contrastive and matching terms only; stage 2 adds the triplet,
local-alignment, and masked-phrase terms. It returns the total and its
per-term breakdown, which :func:`train` logs per step. The finite-difference
check of the total (``gradcheck.check_total``) differentiates this function
itself, each time on a :meth:`TrainState.replica`. A :class:`TrainState` is
all a run reads and changes step by step. Each stage's learning-rate schedule
spans its epochs times the batches ``make_batches`` gives per epoch. The
momentum shadows are updated after every optimizer step and are never
touched by the optimizer, which takes the gradients as the mapping
``numerics.backward`` returns; nothing is reset between steps. :func:`train`
holds one step's graph at a time: it drops each step's loss once the
optimizer step and the momentum update have run. At a fixed BLAS thread
count, runs are bit-for-bit reproducible from the seed; across thread counts
a product may sum in another order, so gradients can differ in the last bits.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import numbers
from pathlib import Path

import numpy as np

from . import losses as ls
from . import model as md
from . import numerics as nx
from .data import Batch, Dataset, make_batches
from .local_align import local_alignment_loss
from .numerics import Rng
from .textproc import TextPipeline

LOG_COLUMNS = ("step", "lr") + tuple(f.name for f in dataclasses.fields(ls.LossBreakdown))

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
    neg_sampling: str = "hard"            # or "uniform"
    enable_triplet: bool = True
    enable_biatt: bool = True
    enable_mpm: bool = True

    def validate(self) -> None:
        md.check_counts(self, {"stage1_epochs": 0, "stage2_epochs": 0, "batch_size": 1,
                               "queue_size": 1, "seed": 0})
        for field in ("base_lr", "warmup_lr", "warmup_frac", "triplet_margin",
                      "momentum_coeff", "weight_decay"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or \
                    not math.isfinite(value):
                raise ValueError(f"{field} must be a finite number, got {value!r}")
        if min(self.base_lr, self.warmup_lr) <= 0:
            raise ValueError("learning rates must be positive")
        if self.triplet_margin < 0:
            raise ValueError("triplet margin must be nonnegative")
        if not 0.0 <= self.warmup_frac <= 1.0:
            raise ValueError("warmup_frac must lie in [0, 1]")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        if not 0.0 <= self.momentum_coeff < 1.0:
            raise ValueError("momentum coefficient must lie in [0, 1)")
        if self.neg_sampling not in ("hard", "uniform"):
            raise ValueError("neg_sampling must be hard or uniform")


# ---------------------------------------------------------------------------
# optimizer


@dataclasses.dataclass
class OptimState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "OptimState":
        return cls(m={n: np.zeros_like(t.data) for n, t in params.items()},
                   v={n: np.zeros_like(t.data) for n, t in params.items()})


def adamw_step(params: dict, grads: dict, state: OptimState, lr: float,
               weight_decay: float) -> None:
    """Decoupled weight decay (matrices only), then Adam with bias correction.

    ``grads`` maps parameter tensors to their gradients, as ``backward``
    returns them; a parameter without an entry takes a zero gradient.
    Momentum shadows are not parameters and are never visited here. A
    non-finite gradient raises before any parameter, moment or the step
    count changes.
    """
    for name, p in params.items():
        if p in grads and not nx.all_finite(grads[p]):
            raise NumericalError(f"non-finite gradient on parameter {name} "
                                 f"at step {state.step}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        # a scalar zero updates the moments as a zero array would, bit for bit
        g = grads.get(p, 0.0)
        if weight_decay and p.data.ndim >= 2:
            p.data *= 1.0 - lr * weight_decay
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


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
class TrainState:
    """All a run reads and changes step by step; ``optim.step`` and
    ``log_rows`` count the steps taken."""
    params: dict
    optim: OptimState
    momentum: md.MomentumState
    queue: ls.QueueState
    batch_rng: Rng
    neg_rng: Rng
    log_rows: list = dataclasses.field(default_factory=list)

    @classmethod
    def for_params(cls, params: dict, model_cfg: md.ModelConfig,
                   cfg: TrainConfig, batch_rng: Rng, neg_rng: Rng) -> "TrainState":
        """The state before the first step, its shadows equal to ``params``."""
        return cls(params, OptimState.for_params(params),
                   md.MomentumState.from_params(params, cfg.momentum_coeff),
                   ls.QueueState(cfg.queue_size, model_cfg.proj_dim), batch_rng, neg_rng)

    def replica(self) -> "TrainState":
        """This state with its own queue and negative-sampling stream: a
        ``train_step`` on it repeats the next step and leaves this one as is."""
        return dataclasses.replace(self, queue=copy.deepcopy(self.queue),
                                   neg_rng=copy.deepcopy(self.neg_rng))


def train_step(batch: Batch, stage: int, state: TrainState,
               model_cfg: md.ModelConfig, cfg: TrainConfig):
    """One forward pass of the training objective; returns (total, breakdown),
    the loss Tensor and its terms as floats. Both stages build ITC and ITM;
    stage 2 adds the triplet, local-alignment and masked-phrase terms its
    ``enable_*`` switches allow. Both phrase terms read one cross-encode of
    the batch's masked phrases: the masked-phrase loss its [MASK] rows, the
    local alignment its trace at ``bidiratt_layer``, at the same rows. The
    pass returns the [MASK] rows either way; with MPM off, nothing reads
    them.

    The state's queue receives the batch's momentum embeddings. The caller
    hands ``numerics.backward(total)`` to :func:`adamw_step`.
    """
    if stage not in (1, 2):
        raise ValueError(f"stage must be 1 or 2, got {stage!r}")
    params, queue = state.params, state.queue
    n = len(batch.images)
    img_out, txt_out, img_emb, txt_emb = md.coarse_embeddings(
        batch.images, batch.token_ids, params, model_cfg)
    with nx.no_grad():
        # the shadows carry the live names of the encoders and projections
        _, _, mom_img, mom_txt = md.coarse_embeddings(
            batch.images, batch.token_ids, state.momentum.shadow, model_cfg,
            rows=0)
    tau = nx.exp(params["temp.log_tau"])
    itc = ls.itc_loss(img_emb, txt_emb, mom_img.data, mom_txt.data, queue, tau)
    queue.enqueue(mom_img.data, mom_txt.data)

    coarse = img_emb.data @ txt_emb.data.T
    neg_txt, neg_img = ls.sample_negatives(batch.identities, coarse, state.neg_rng,
                                           mode=cfg.neg_sampling)
    # (text, image, label): positives, then image i with a non-matching
    # text at n + i, then text j with a non-matching image at 2n + j
    pairs = ([(i, i, 1.0) for i in range(n)]
             + [(j, i, 0.0) for i, j in enumerate(neg_txt)]
             + [(j, i, 0.0) for j, i in enumerate(neg_img)])
    fused = md.cross_encode(txt_out, img_out, params, model_cfg,
                            image_index=[i for _, i, _ in pairs],
                            text_index=[t for t, _, _ in pairs], rows=0)
    logits = ls.fine_similarity(fused.cls, params["itm.w"])
    itm = ls.itm_loss(logits, [label for _, _, label in pairs])

    tri = None
    if stage == 2 and cfg.enable_triplet and neg_txt:
        pos, neg_t, neg_i = (nx.gather_rows(logits, range(k * n, (k + 1) * n))
                             for k in range(3))
        tri = ls.fusion_triplet_loss(pos, neg_i, neg_t, margin=cfg.triplet_margin)

    biatt = mpm = None
    masked = [m for item in batch.masked_phrases for m in item]
    if stage == 2 and (cfg.enable_biatt or cfg.enable_mpm) and masked:
        image_ids = [i for i, item in enumerate(batch.masked_phrases) for _ in item]
        mask_rows = [m.mask_index + 1 for m in masked]
        phrases = md.encode_text([m.token_ids for m in masked], params, model_cfg)
        fused = md.cross_encode(
            phrases, img_out, params, model_cfg,
            trace_layer=model_cfg.bidiratt_layer if cfg.enable_biatt else None,
            image_index=image_ids, rows=mask_rows)
        if cfg.enable_biatt:
            biatt, _ = local_alignment_loss(
                img_out, phrases, fused, mask_rows, params, model_cfg,
                target_id=[m.target_id for m in masked], image_index=image_ids)
        if cfg.enable_mpm:
            mpm = ls.masked_phrase_loss(fused, masked, params)

    return ls.total_loss(itc, itm, tri, biatt, mpm, phrase_scale=1.0 / n)


def train(model_cfg: md.ModelConfig, cfg: TrainConfig, dataset: Dataset,
          pipeline: TextPipeline, out_dir=None) -> TrainState:
    """Run both stages and return the final state; optionally write
    per-stage checkpoints and the CSV training log under ``out_dir``."""
    cfg.validate()
    model_cfg.validate()
    dcfg = dataset.config
    if (dcfg.patch_rows, dcfg.patch_cols, dcfg.patch_pixels) != \
            (model_cfg.patch_rows, model_cfg.patch_cols, model_cfg.patch_pixels):
        raise ValueError("model patch geometry does not match the dataset")

    rng = Rng(cfg.seed)
    init_rng, batch_rng, neg_rng = rng.child(), rng.child(), rng.child()
    state = TrainState.for_params(md.init_params(model_cfg, init_rng), model_cfg, cfg,
                                  batch_rng, neg_rng)
    records = dataset.train_records()
    effective_batch = min(cfg.batch_size, len({r.identity for r in records}))

    for stage, epochs in ((1, cfg.stage1_epochs), (2, cfg.stage2_epochs)):
        stage_step = 0
        for _ in range(epochs):
            batches = make_batches(records, effective_batch, pipeline, state.batch_rng)
            # every epoch of a stage has as many batches, whatever the draw
            total_steps = epochs * len(batches)
            warmup = int(round(cfg.warmup_frac * total_steps))
            for batch in batches:
                lr = cosine_lr(stage_step, total_steps, cfg.base_lr, warmup,
                               cfg.warmup_lr)
                try:
                    total, breakdown = train_step(batch, stage, state, model_cfg, cfg)
                except nx.NonFiniteError as e:
                    raise NumericalError(
                        f"non-finite loss at step {state.optim.step}: {e}") from e
                adamw_step(state.params, nx.backward(total), state.optim, lr,
                           cfg.weight_decay)
                md.momentum_update(state.params, state.momentum)
                # the next step builds its graph without this one's values
                # beside it
                del total
                state.log_rows.append({"step": state.optim.step - 1, "lr": lr,
                                       **dataclasses.asdict(breakdown)})
                stage_step += 1
        if out_dir is not None:
            path = Path(out_dir) / f"stage{stage}.ckpt"
            md.save_checkpoint(path, md.params_state(state.params, state.momentum))

    if out_dir is not None:
        write_log_csv(Path(out_dir) / "training_log.csv", state.log_rows)
    return state


def write_log_csv(path, log_rows) -> None:
    lines = [",".join(LOG_COLUMNS)]
    for row in log_rows:
        lines.append(",".join(f"{row[c]:.12g}" if c != "step" else str(row[c])
                              for c in LOG_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
