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
from .model import (AttentionTrace, EncoderOutput, FusionOutput, ModelConfig, Params,
                    phrase_projection)

log = logging.getLogger(__name__)

_EPS_FALLBACK = 1e-12


@dataclasses.dataclass
class BidirectionalWeights:
    """Head-averaged forward / rectified-backward attention and their
    normalized product, over [CLS] + patch positions."""

    w_fa: np.ndarray        # (L_img + 1,), sums to 1
    w_ba: np.ndarray        # (L_img + 1,), rectified head average
    w: np.ndarray           # (L_img + 1,), nonnegative, sums to 1
    s_per_head: np.ndarray  # (heads,), masked-token prediction score per head


def forward_attention(trace: AttentionTrace, row_index: int = 0) -> np.ndarray:
    """(heads, L_img + 1) attention over image positions from one traced row."""
    if trace is None:
        raise ValueError("no attention trace captured; request a trace layer")
    return trace.attn.data[:, row_index].copy()


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
    graph traversal. Returns (heads, L_img + 1)."""
    return np.einsum("hjk,hk->hj", trace.values.data, heads_ws)


def _head_means(fa_heads, ba_heads):
    """Head-averaged forward attention and rectified backward attention."""
    fa = np.mean(np.asarray(fa_heads, dtype=np.float64), axis=0)
    ba = np.mean(np.maximum(np.asarray(ba_heads, dtype=np.float64), 0.0), axis=0)
    if fa.shape != ba.shape:
        raise nx.ShapeError(f"attention length mismatch: {fa.shape} vs {ba.shape}")
    return fa, ba


def _normalized_product(fa: np.ndarray, ba: np.ndarray) -> np.ndarray:
    raw = fa * ba
    total = raw.sum()
    if total < _EPS_FALLBACK:
        return fa.copy()
    return raw / total


def bidirectional_weights(fa_heads, ba_heads) -> np.ndarray:
    """Normalized product of head-averaged forward and rectified backward
    attention, each (heads, L_img + 1); falls back to the forward average if
    rectification removes all mass."""
    return _normalized_product(*_head_means(fa_heads, ba_heads))


def compute_weights(trace: AttentionTrace, heads_ws: np.ndarray, mask_row: int,
                    row_mode: str = "mask") -> BidirectionalWeights:
    """Full weight computation for one traced image-phrase pair, given the
    (heads, head_dim) score vectors of :func:`score_vectors`.

    ``row_mode`` selects the row whose attention serves as forward attention:
    the masked token's row (default) or the global [CLS] row.
    """
    fa_heads = forward_attention(trace, mask_row if row_mode == "mask" else 0)
    ba_heads = backward_attention(trace, heads_ws)
    fa, ba = _head_means(fa_heads, ba_heads)
    # s_h = A_h[mask_row] V_h w_h, and V_h w_h is the backward attention
    s = np.einsum("hj,hj->h", trace.attn.data[:, mask_row], ba_heads)
    return BidirectionalWeights(w_fa=fa, w_ba=ba, w=_normalized_product(fa, ba),
                                s_per_head=s)


def weighted_pool(w: np.ndarray, image: EncoderOutput) -> Tensor:
    """Sum of patch rows weighted by ``w`` renormalized over patches.

    ``w`` covers [CLS] + patches and must sum to 1; the [CLS] share is
    dropped and the remainder rescaled, since pooling runs over patches only.
    """
    w = np.asarray(w, dtype=np.float64)
    n_rows = image.reps.shape[0]
    if w.shape != (n_rows,):
        raise nx.ShapeError(f"weight length {w.shape} does not match "
                            f"{n_rows} image rows")
    if abs(w.sum() - 1.0) > 1e-6:
        raise ValueError(f"weights sum to {w.sum():.9f}, expected 1")
    patch_w = w[1:]
    total = patch_w.sum()
    patch_w = patch_w / total if total > _EPS_FALLBACK else \
        np.full(n_rows - 1, 1.0 / (n_rows - 1))
    patches = nx.slice_rows(image.reps, 1, n_rows)
    pooled = nx.matmul(Tensor(patch_w.reshape(1, -1)), patches)
    return nx.reshape(pooled, (pooled.shape[1],))


def coarse_similarity(a: Tensor, b: Tensor, proj_a: Tensor, proj_b: Tensor) -> Tensor:
    """Cosine of the projected representations; zero projections yield 0."""
    pa = nx.reshape(nx.matmul(nx.as_row(a), proj_a), (proj_a.shape[1],))
    pb = nx.reshape(nx.matmul(nx.as_row(b), proj_b), (proj_b.shape[1],))
    if float((pa.data ** 2).sum()) < _EPS_FALLBACK or \
            float((pb.data ** 2).sum()) < _EPS_FALLBACK:
        log.warning("zero vector after coarse projection; similarity set to 0")
        return Tensor(0.0)
    return nx.cosine(pa, pb)


def score_vectors(params: Params, cfg: ModelConfig,
                  target_id: int | None = None) -> np.ndarray:
    """(heads, head_dim) score vectors as a plain array; one shared head by
    default, or the masked token's classifier column split by head when tied."""
    if not cfg.tie_score_head:
        w_s = params["score.w"].data.reshape(-1)
        return np.broadcast_to(w_s, (cfg.heads, w_s.size))
    if target_id is None:
        raise ValueError("tied score head requires the masked target id")
    return params["mpm.w2"].data[:, target_id].reshape(cfg.heads, cfg.head_dim)


def local_alignment_loss(image: EncoderOutput, phrase_out: EncoderOutput,
                         fusion: FusionOutput, mask_row: int, params: Params,
                         cfg: ModelConfig, target_id: int | None = None):
    """1 - cosine between the weight-pooled image representation and the
    projected phrase representation. Returns (loss, weights)."""
    weights = compute_weights(fusion.trace, score_vectors(params, cfg, target_id),
                              mask_row, cfg.biatt_row)
    pooled = weighted_pool(weights.w, image)
    sim = coarse_similarity(pooled, phrase_out.cls, params["proj.img.w"],
                            phrase_projection(params, cfg))
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
