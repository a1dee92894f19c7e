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
from .model import AttentionTrace, EncoderOutput, ModelConfig

_EPS_FALLBACK = 1e-12


@dataclasses.dataclass
class BidirectionalWeights:
    """Head-averaged forward / rectified-backward attention and their
    normalized product over [CLS] + patch positions: (B, L_img + 1) from
    :func:`compute_weights`, one pair's row each from :meth:`pair`."""

    w_fa: np.ndarray        # sums to 1
    w_ba: np.ndarray        # rectified head average
    w: np.ndarray           # nonnegative, sums to 1

    def pair(self, b: int) -> "BidirectionalWeights":
        """Pair ``b``'s weights, one (L_img + 1,) row each."""
        return BidirectionalWeights(self.w_fa[b], self.w_ba[b], self.w[b])


def compute_weights(trace: AttentionTrace, heads_ws: np.ndarray,
                    mask_row) -> BidirectionalWeights:
    """Weights of each pair of a batched (B, heads, L_txt, L_img + 1) trace,
    given one mask row per pair and the :func:`score_vectors`. Forward
    attention is each pair's own [MASK] row of the trace, the query whose
    token the masked-phrase loss reconstructs. Backward attention of head h
    at position j is sum_k V[h, j, k] * heads_ws[h, k]. A pair whose
    rectified product has no mass falls back to its forward average."""
    if trace is None:
        raise ValueError("no attention trace captured; request a trace layer")
    attn = trace.attn
    rows = np.broadcast_to(mask_row, attn.shape[:1])
    fa = np.mean(attn[np.arange(len(attn)), :, rows], axis=1)
    ba_heads = np.einsum("...hjk,...hk->...hj", trace.values, heads_ws)
    ba = np.mean(np.maximum(ba_heads, 0.0), axis=1)
    raw = fa * ba
    total = raw.sum(axis=1, keepdims=True)
    w = np.where(total >= _EPS_FALLBACK, raw / np.maximum(total, _EPS_FALLBACK), fa)
    return BidirectionalWeights(w_fa=fa, w_ba=ba, w=w)


def weighted_pool(w: np.ndarray, image: EncoderOutput, image_index=None) -> Tensor:
    """(B, d) sums of each pair's patch rows weighted by its row of the
    (B, L_img + 1) weights, renormalized over patches.

    The image rows are a (B, L_img + 1, d) batch, one image per pair, or
    with ``image_index`` an (n, L_img + 1, d) stack from which pair b reads
    image ``image_index[b]``. Either way the pooling is one product of a
    (B, n · (L_img + 1)) weight matrix with the flattened rows, so no image
    is copied per pair. Each weight row covers [CLS] + patches and must sum
    to 1; the [CLS] share is dropped and the remainder rescaled, since
    pooling runs over patches only. A row with no patch mass left pools the
    patches uniformly.
    """
    w = np.asarray(w, dtype=np.float64)
    reps = image.reps
    index = np.arange(len(w)) if image_index is None else \
        np.asarray(image_index, dtype=np.intp)
    if w.ndim != 2 or reps.data.ndim != 3 or w.shape[1] != reps.shape[1] or \
            index.shape != w.shape[:1] or ((index < 0) | (index >= reps.shape[0])).any():
        raise nx.ShapeError(f"weights of shape {w.shape} and image index "
                            f"{index.tolist()} do not match image rows {reps.shape}")
    sums = w.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-6:
        raise ValueError(f"weights sum to {sums}, expected 1")
    patch = w[:, 1:]
    total = patch.sum(axis=1, keepdims=True)
    patch = np.where(total > _EPS_FALLBACK, patch / np.maximum(total, _EPS_FALLBACK),
                     1.0 / patch.shape[1])
    # the [CLS] row and the other images' rows are pooled with weight 0
    n, length, d = reps.shape
    pool = np.zeros((len(w), n, length))
    pool[np.arange(len(w)), index, 1:] = patch
    return nx.linear(Tensor(pool.reshape(len(w), n * length)),
                     nx.reshape(reps, (n * length, d)))


def pooled_alignment_loss(w: np.ndarray, image: EncoderOutput,
                          phrase_out: EncoderOutput, params: dict,
                          image_index=None) -> Tensor:
    """(B,) 1 - cosine between each pair's weight-pooled image rows (see
    :func:`weighted_pool`) and its phrase [CLS] row, each projected and
    normalized into the coarse space as :func:`model.coarse_embeddings` does.
    A zero projection raises :class:`numerics.NonFiniteError`."""
    pooled = weighted_pool(w, image, image_index)
    img = nx.l2_normalize_rows(nx.linear(pooled, params["proj.img.w"]))
    txt = nx.l2_normalize_rows(nx.linear(phrase_out.cls, params["proj.txt.w"]))
    cos = nx.reshape(nx.row_sums(nx.mul(img, txt)), (len(w),))
    return nx.sub(Tensor(1.0), cos)


def score_vectors(params: dict, cfg: ModelConfig, target_id=None) -> np.ndarray:
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
                         fusion: EncoderOutput, mask_row, params: dict,
                         cfg: ModelConfig, target_id=None, image_index=None):
    """(B,) 1 - cosine between the weight-pooled image representation and the
    projected phrase representation of each pair. Returns (loss, weights).

    Takes a batch of pairs: the image rows, one image per pair or a stack
    and ``image_index`` as for :func:`weighted_pool`, the phrases encoded in
    one call, and their traced :func:`model.cross_encode`, with one mask row
    and one target id per pair."""
    weights = compute_weights(fusion.trace, score_vectors(params, cfg, target_id),
                              mask_row)
    loss = pooled_alignment_loss(weights.w, image, phrase_out, params, image_index)
    return loss, weights


# ---------------------------------------------------------------------------
# heatmap export


def _one_pair(w, rows: int, cols: int) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (rows * cols + 1,):
        raise nx.ShapeError(f"need one pair's weights over [CLS] + {rows}x{cols} "
                            f"patches (see BidirectionalWeights.pair), got {w.shape}")
    return w


def write_heatmap_csv(path, weights: BidirectionalWeights, rows: int, cols: int) -> None:
    """CSV of one pair's w / forward / backward attention per patch (row, col)."""
    w, w_fa, w_ba = (_one_pair(v, rows, cols) for v in (weights.w, weights.w_fa,
                                                         weights.w_ba))
    lines = ["patch,row,col,w,w_fa,w_ba"]
    for j in range(1, rows * cols + 1):
        r, c = divmod(j - 1, cols)
        lines.append(f"{j},{r},{c},{w[j]:.12g},{w_fa[j]:.12g},{w_ba[j]:.12g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_pgm(path, w: np.ndarray, rows: int, cols: int) -> None:
    """8-bit binary PGM of one pair's patch weights, min-max normalized."""
    patch = _one_pair(w, rows, cols)[1:].reshape(rows, cols)
    lo, hi = patch.min(), patch.max()
    scaled = np.zeros_like(patch) if hi - lo < 1e-30 else (patch - lo) / (hi - lo)
    pixels = np.round(scaled * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes(order="C"))
