"""Bidirectional attention-weighted local alignment between image patches
and a text phrase.

Forward attention is the traced cross-attention row of the phrase over image
positions. Backward attention is the gradient of the masked-token prediction
score with respect to those attention weights, which collapses to the closed
form ``V @ w_s`` per head, so no graph traversal is needed. The two are
head-averaged (backward rectified first), multiplied, and normalized into a
weight vector used to pool a phrase-guided image representation.

The weight vector is treated as a constant during differentiation: gradients
of the alignment loss flow through the pooled patch rows and the coarse
projections, not through the attention weights themselves.
"""

from __future__ import annotations

import dataclasses
import logging
from pathlib import Path

import numpy as np

from . import numerics as nx
from .numerics import Tensor
from .model import AttentionTrace, EncoderOutput, FusionOutput, ModelConfig, Params

log = logging.getLogger(__name__)

_EPS_FALLBACK = 1e-12


@dataclasses.dataclass
class BidirectionalWeights:
    """Head-averaged forward / rectified-backward attention and their
    normalized product, over [CLS] + patch positions; a batch of pairs adds
    a leading pair axis to every field."""

    w_fa: np.ndarray        # ([B,] L_img + 1), sums to 1
    w_ba: np.ndarray        # ([B,] L_img + 1), rectified head average
    w: np.ndarray           # ([B,] L_img + 1), nonnegative, sums to 1
    s_per_head: np.ndarray  # ([B,] heads), masked-token prediction score per head


def forward_attention(trace: AttentionTrace, row_index=0) -> np.ndarray:
    """([B,] heads, L_img + 1) attention over image positions from one traced
    row: one row for all pairs of a batch, or one per pair."""
    if trace is None:
        raise ValueError("no attention trace captured; request a trace layer")
    attn = trace.attn.data
    idx = np.broadcast_to(row_index, attn.shape[:-3])[..., None, None, None]
    return np.take_along_axis(attn, idx, axis=-2)[..., 0, :]


def score_per_head(trace: AttentionTrace, mask_row: int, w_s: Tensor) -> Tensor:
    """(heads,) masked-token prediction score, on the graph: (A_row V) w_s."""
    if trace is None:
        raise ValueError("no attention trace captured; request a trace layer")
    row = nx.take_row(trace.attn, mask_row)
    heads, n = row.shape
    s = nx.matmul(nx.matmul(nx.reshape(row, (heads, 1, n)), trace.values), w_s)
    return nx.reshape(s, (heads,))


def backward_attention(trace: AttentionTrace, heads_ws: np.ndarray) -> np.ndarray:
    """Gradient of the prediction score w.r.t. the attention row, in closed
    form: position j of head h gets sum_k V[h, j, k] * heads_ws[h, k]. No
    graph traversal. Returns ([B,] heads, L_img + 1); ``heads_ws`` is
    (heads, head_dim), shared by all pairs, or one such block per pair."""
    return np.einsum("...hjk,...hk->...hj", trace.values.data, heads_ws)


def _head_means(fa_heads, ba_heads):
    """Head-averaged forward attention and rectified backward attention."""
    fa = np.mean(np.asarray(fa_heads, dtype=np.float64), axis=-2)
    ba = np.mean(np.maximum(np.asarray(ba_heads, dtype=np.float64), 0.0), axis=-2)
    if fa.shape != ba.shape:
        raise nx.ShapeError(f"attention length mismatch: {fa.shape} vs {ba.shape}")
    return fa, ba


def _normalized_product(fa: np.ndarray, ba: np.ndarray) -> np.ndarray:
    raw = fa * ba
    total = raw.sum(axis=-1, keepdims=True)
    return np.where(total >= _EPS_FALLBACK, raw / np.maximum(total, _EPS_FALLBACK), fa)


def bidirectional_weights(fa_heads, ba_heads) -> np.ndarray:
    """Normalized product of head-averaged forward and rectified backward
    attention, each ([B,] heads, L_img + 1); a row falls back to the forward
    average if rectification removes all its mass."""
    return _normalized_product(*_head_means(fa_heads, ba_heads))


def compute_weights(trace: AttentionTrace, heads_ws: np.ndarray, mask_row,
                    row_mode: str = "mask") -> BidirectionalWeights:
    """Full weight computation for one traced image-phrase pair, or for each
    pair of a batched trace with one mask row per pair, given the score
    vectors of :func:`score_vectors`.

    ``row_mode`` selects the row whose attention serves as forward attention:
    the masked token's row (default) or the global [CLS] row.
    """
    mask_heads = forward_attention(trace, mask_row)
    fa_heads = mask_heads if row_mode == "mask" else forward_attention(trace, 0)
    ba_heads = backward_attention(trace, heads_ws)
    fa, ba = _head_means(fa_heads, ba_heads)
    # s_h = A_h[mask_row] V_h w_h, and V_h w_h is the backward attention
    s = np.einsum("...hj,...hj->...h", mask_heads, ba_heads)
    return BidirectionalWeights(w_fa=fa, w_ba=ba, w=_normalized_product(fa, ba),
                                s_per_head=s)


def weighted_pool(w: np.ndarray, image: EncoderOutput) -> Tensor:
    """Sum of patch rows weighted by ``w`` renormalized over patches: (d,)
    from one image's (L_img + 1,) weights, (B, d) from a batch's rows.

    Each weight row covers [CLS] + patches and must sum to 1; the [CLS] share
    is dropped and the remainder rescaled, since pooling runs over patches
    only. A row with no patch mass left pools the patches uniformly.
    """
    w = np.asarray(w, dtype=np.float64)
    reps = image.reps
    if w.shape != reps.shape[:-1]:
        raise nx.ShapeError(f"weights of shape {w.shape} do not match "
                            f"image rows {reps.shape[:-1]}")
    sums = w.sum(axis=-1)
    if np.abs(sums - 1.0).max() > 1e-6:
        raise ValueError(f"weights sum to {sums}, expected 1")
    patch = w[..., 1:]
    total = patch.sum(axis=-1, keepdims=True)
    patch = np.where(total > _EPS_FALLBACK, patch / np.maximum(total, _EPS_FALLBACK),
                     1.0 / patch.shape[-1])
    # the [CLS] row is pooled with weight 0
    pool = np.concatenate([np.zeros_like(total), patch], axis=-1)
    pooled = nx.matmul(Tensor(pool[..., None, :]), reps)
    return nx.reshape(pooled, reps.shape[:-2] + reps.shape[-1:])


def coarse_similarity(a: Tensor, b: Tensor, proj_a: Tensor, proj_b: Tensor) -> Tensor:
    """Cosine of the projected representations: a scalar for two (d,)
    vectors, (B,) for two batches of (B, d) rows. A pair with a zero
    projection gets 0 and a zero gradient, and a warning is logged."""
    pa = nx.matmul(a if a.data.ndim == 2 else nx.as_row(a), proj_a)
    pb = nx.matmul(b if b.data.ndim == 2 else nx.as_row(b), proj_b)
    sq_a = nx.row_sums(nx.mul(pa, pa))
    sq_b = nx.row_sums(nx.mul(pb, pb))
    zero = (sq_a.data < _EPS_FALLBACK) | (sq_b.data < _EPS_FALLBACK)
    if zero.any():
        log.warning("zero vector after coarse projection; similarity set to 0")
    # a zero pair's squared norms are raised by 1, so that its square root and
    # division stay finite; the mask then sets its cosine to 0
    norms = nx.sqrt(nx.mul(nx.add(sq_a, Tensor(zero)), nx.add(sq_b, Tensor(zero))))
    cos = nx.mul(nx.div(nx.row_sums(nx.mul(pa, pb)), norms), Tensor(~zero))
    return nx.reshape(cos, a.shape[:-1])


def score_vectors(params: Params, cfg: ModelConfig, target_id=None) -> np.ndarray:
    """(heads, head_dim) score vectors as a plain array: one shared head by
    default, or the masked token's classifier column split by head when tied,
    then ([B,] heads, head_dim) for one target id or a batch of them."""
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
    """1 - cosine between the weight-pooled image representation and the
    projected phrase representation. Returns (loss, weights).

    Takes one pair, or a batch of pairs (the image rows picked per pair by
    :meth:`model.EncoderOutput.select`, the phrases encoded in one call, and
    their :func:`model.cross_encode`), with one mask row and one target id
    per pair; the loss is then a (B,) vector."""
    weights = compute_weights(fusion.trace, score_vectors(params, cfg, target_id),
                              mask_row, cfg.biatt_row)
    pooled = weighted_pool(weights.w, image)
    sim = coarse_similarity(pooled, phrase_out.cls, params["proj.img.w"],
                            params["proj.txt.w"])
    return nx.sub(Tensor(1.0), sim), weights


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
