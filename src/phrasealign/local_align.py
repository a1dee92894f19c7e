"""Bidirectional attention-weighted local alignment between image patches
and text phrases, over a batch of image-phrase pairs.

Forward attention is the traced cross-attention row of the phrase over image
positions. Backward attention is the gradient of the score ``(A_row V) w_s``
with respect to that row, in closed form ``V @ w_s`` per head. By default
(``tie_score_head=False``) ``w_s`` is ``score.w``, which no loss trains, so
backward attention is ReLU(V . a fixed random vector), not the gradient of
the masked-token prediction score; ROADMAP item 4 replaces it. The two are
head-averaged (backward rectified first), multiplied, and normalized into
weights that pool a phrase-guided image representation. The weights are
constants under differentiation: gradients of the alignment loss flow
through the pooled patch rows and the coarse projections only.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from . import numerics as nx
from .numerics import Tensor
from .model import AttentionTrace, EncoderOutput, FusionOutput, ModelConfig, Params

_EPS_FALLBACK = 1e-12


@dataclasses.dataclass
class BidirectionalWeights:
    """Head-averaged forward / rectified-backward attention and their
    normalized product over [CLS] + patch positions: (B, L_img + 1) from
    :func:`compute_weights`, one pair's row each for the heatmap export."""

    w_fa: np.ndarray        # sums to 1
    w_ba: np.ndarray        # rectified head average
    w: np.ndarray           # nonnegative, sums to 1


def compute_weights(trace: AttentionTrace, heads_ws: np.ndarray, mask_row,
                    row_mode: str = "mask") -> BidirectionalWeights:
    """Weights of each pair of a batched (B, heads, L_txt, L_img + 1) trace,
    given one mask row per pair and the :func:`score_vectors`. ``row_mode``
    picks the forward-attention row: each pair's masked token row (default)
    or the [CLS] row. Backward attention of head h at position j is
    sum_k V[h, j, k] * heads_ws[h, k]. A pair whose rectified product has no
    mass falls back to its forward average."""
    if trace is None:
        raise ValueError("no attention trace captured; request a trace layer")
    attn = trace.attn.data
    rows = np.broadcast_to(mask_row if row_mode == "mask" else 0, attn.shape[:1])
    fa = np.mean(attn[np.arange(len(attn)), :, rows], axis=1)
    ba_heads = np.einsum("...hjk,...hk->...hj", trace.values.data, heads_ws)
    ba = np.mean(np.maximum(ba_heads, 0.0), axis=1)
    raw = fa * ba
    total = raw.sum(axis=1, keepdims=True)
    w = np.where(total >= _EPS_FALLBACK, raw / np.maximum(total, _EPS_FALLBACK), fa)
    return BidirectionalWeights(w_fa=fa, w_ba=ba, w=w)


def weighted_pool(w: np.ndarray, image: EncoderOutput) -> Tensor:
    """(B, d) sums of each pair's patch rows weighted by its row of the
    (B, L_img + 1) weights, renormalized over patches.

    Each weight row covers [CLS] + patches and must sum to 1; the [CLS] share
    is dropped and the remainder rescaled, since pooling runs over patches
    only. A row with no patch mass left pools the patches uniformly.
    """
    w = np.asarray(w, dtype=np.float64)
    reps = image.reps
    if w.ndim != 2 or w.shape != reps.shape[:-1]:
        raise nx.ShapeError(f"weights of shape {w.shape} do not match "
                            f"image rows {reps.shape[:-1]}")
    sums = w.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-6:
        raise ValueError(f"weights sum to {sums}, expected 1")
    patch = w[:, 1:]
    total = patch.sum(axis=1, keepdims=True)
    patch = np.where(total > _EPS_FALLBACK, patch / np.maximum(total, _EPS_FALLBACK),
                     1.0 / patch.shape[1])
    # the [CLS] row is pooled with weight 0
    pool = np.concatenate([np.zeros_like(total), patch], axis=1)
    pooled = nx.matmul(Tensor(pool[:, None, :]), reps)
    return nx.reshape(pooled, (len(w), reps.shape[-1]))


def pooled_alignment_loss(w: np.ndarray, image: EncoderOutput,
                          phrase_out: EncoderOutput, params: Params) -> Tensor:
    """(B,) 1 - cosine between each pair's weight-pooled image rows and its
    phrase [CLS] row, each projected and normalized into the coarse space as
    :func:`model.coarse_embeddings` does. A zero projection raises
    :class:`numerics.NonFiniteError`."""
    img = nx.l2_normalize_rows(nx.matmul(weighted_pool(w, image), params["proj.img.w"]))
    txt = nx.l2_normalize_rows(nx.matmul(phrase_out.cls, params["proj.txt.w"]))
    cos = nx.reshape(nx.row_sums(nx.mul(img, txt)), (len(w),))
    return nx.sub(Tensor(1.0), cos)


def score_vectors(params: Params, cfg: ModelConfig, target_id=None) -> np.ndarray:
    """(heads, head_dim) score vectors as a plain array: the untrained
    ``score.w`` shared by every head and pair by default (see the module
    docstring), or, when tied, the masked targets' MPM classifier columns
    split by head, (B, heads, head_dim) for a batch of target ids."""
    if not cfg.tie_score_head:
        w_s = params["score.w"].data.reshape(-1)
        return np.broadcast_to(w_s, (cfg.heads, w_s.size))
    if target_id is None:
        raise ValueError("tied score head requires the masked target id")
    ids = np.asarray(target_id)
    columns = np.moveaxis(params["mpm.w2"].data[:, ids], 0, -1)
    return columns.reshape(ids.shape + (cfg.heads, cfg.head_dim))


def local_alignment_loss(image: EncoderOutput, phrase_out: EncoderOutput,
                         fusion: FusionOutput, mask_row, params: Params,
                         cfg: ModelConfig, target_id=None):
    """(B,) 1 - cosine between the weight-pooled image representation and the
    projected phrase representation of each pair. Returns (loss, weights).

    Takes a batch of pairs: the image rows picked per pair by
    :meth:`model.EncoderOutput.select`, the phrases encoded in one call, and
    their traced :func:`model.cross_encode`, with one mask row and one target
    id per pair."""
    weights = compute_weights(fusion.trace, score_vectors(params, cfg, target_id),
                              mask_row, cfg.biatt_row)
    return pooled_alignment_loss(weights.w, image, phrase_out, params), weights


# ---------------------------------------------------------------------------
# heatmap export


def heatmap_csv_lines(weights: BidirectionalWeights, rows: int, cols: int) -> list:
    """CSV of w / forward / backward attention per patch (row, col)."""
    lines = ["patch,row,col,w,w_fa,w_ba"]
    for j in range(1, rows * cols + 1):
        r, c = divmod(j - 1, cols)
        lines.append(f"{j},{r},{c},{weights.w[j]:.12g},"
                     f"{weights.w_fa[j]:.12g},{weights.w_ba[j]:.12g}")
    return lines


def write_heatmap_csv(path, weights: BidirectionalWeights, rows: int, cols: int) -> None:
    Path(path).write_text("\n".join(heatmap_csv_lines(weights, rows, cols)) + "\n",
                          encoding="utf-8")


def write_pgm(path, w: np.ndarray, rows: int, cols: int) -> None:
    """8-bit binary PGM of the patch weights, min-max normalized."""
    patch = np.asarray(w, dtype=np.float64)[1:].reshape(rows, cols)
    lo, hi = patch.min(), patch.max()
    scaled = np.zeros_like(patch) if hi - lo < 1e-30 else (patch - lo) / (hi - lo)
    pixels = np.round(scaled * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes(order="C"))
