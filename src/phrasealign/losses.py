"""Contrastive, matching, triplet, and masked-phrase losses plus the total
objective.

The contrastive term scores each live embedding against the momentum
embeddings of its batch plus two fixed-capacity queues of past momentum
embeddings; queue entries are always negatives. Matching and triplet terms
run on the fused [CLS] scalar logit. The masked-phrase term classifies the
original token at the masked position of the fused phrase representation.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from . import numerics as nx
from .numerics import Rng, Tensor
from .model import FusionOutput, Params
from .textproc import MaskedPhrase

log = logging.getLogger(__name__)


class QueueState:
    """Two ring buffers of L2-normalized momentum embeddings (image, text)."""

    def __init__(self, capacity: int, dim: int):
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self.q_img = np.zeros((capacity, dim))
        self.q_txt = np.zeros((capacity, dim))
        self.cursor = 0
        self.filled = 0

    @staticmethod
    def _normalized(rows: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        return rows / np.maximum(norms, 1e-12)

    def enqueue(self, img_rows: np.ndarray, txt_rows: np.ndarray) -> None:
        img_rows = self._normalized(np.atleast_2d(img_rows))
        txt_rows = self._normalized(np.atleast_2d(txt_rows))
        for img, txt in zip(img_rows, txt_rows):
            self.q_img[self.cursor] = img
            self.q_txt[self.cursor] = txt
            self.cursor = (self.cursor + 1) % self.capacity
            self.filled = min(self.filled + 1, self.capacity)

    def image_candidates(self) -> np.ndarray:
        return self.q_img[:self.filled]

    def text_candidates(self) -> np.ndarray:
        return self.q_txt[:self.filled]


@dataclasses.dataclass
class LossBreakdown:
    itc: float = 0.0
    itm: float = 0.0
    tri: float = 0.0
    biatt: float = 0.0
    mpm: float = 0.0
    total: float = 0.0
    p_i2t: np.ndarray | None = None
    p_t2i: np.ndarray | None = None


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def itc_loss(img_emb: Tensor, txt_emb: Tensor, mom_img: np.ndarray,
             mom_txt: np.ndarray, queue: QueueState, tau: Tensor):
    """Symmetric contrastive loss over batch momentum embeddings plus queued
    negatives; the matching batch index is the positive. The queue is only
    read; the caller enqueues the batch's momentum embeddings afterwards.

    Returns (loss, p_i2t, p_t2i); the probability matrices are detached.
    """
    if float(tau.data) <= 0.0:
        raise ValueError(f"temperature must be positive, got {float(tau.data)}")
    n = img_emb.shape[0]
    cand_txt = Tensor(np.vstack([mom_txt, queue.text_candidates()]))
    cand_img = Tensor(np.vstack([mom_img, queue.image_candidates()]))
    logits_i2t = nx.div(nx.matmul(img_emb, nx.transpose(cand_txt)), tau)
    logits_t2i = nx.div(nx.matmul(txt_emb, nx.transpose(cand_img)), tau)

    def row_ce(logits):
        return nx.mul(nx.sum_n([nx.cross_entropy_logits(nx.take_row(logits, i), i)
                                for i in range(n)]), 1.0 / n)

    loss = nx.mul(nx.add(row_ce(logits_i2t), row_ce(logits_t2i)), 0.5)
    p_i2t = _softmax_rows(logits_i2t.data)
    p_t2i = _softmax_rows(logits_t2i.data)
    return loss, p_i2t, p_t2i


def fine_similarity(fusion_cls: Tensor, w_o: Tensor) -> Tensor:
    """Scalar matching logit of a fused [CLS] representation."""
    return nx.reshape(nx.matmul(nx.as_row(fusion_cls), w_o), ())


def itm_loss(pairs: list) -> Tensor:
    """Binary cross-entropy over (logit, label) pairs, summed and normalized
    by the number of positive pairs."""
    if not pairs:
        raise ValueError("itm_loss needs at least one pair")
    n_pos = sum(1 for _, label in pairs if label >= 0.5)
    terms = [nx.binary_cross_entropy_logit(logit, float(label))
             for logit, label in pairs]
    return nx.mul(nx.sum_n(terms), 1.0 / max(1, n_pos))


def sample_negatives(identities: list, coarse_sims: np.ndarray, rng: Rng,
                     mode: str = "hard"):
    """One negative text per image and one negative image per text.

    Hard mode draws proportionally to the softmax of coarse similarity over
    non-matching batch candidates; uniform mode ignores the similarities.
    Returns (neg_text_index_per_image, neg_image_index_per_text); empty lists
    for a batch of one.
    """
    n = len(identities)
    if n < 2:
        log.info("batch of one: no negatives, matching loss covers positives only")
        return [], []
    if mode not in ("hard", "uniform"):
        raise ValueError(f"unknown negative sampling mode {mode!r}")

    def draw(scores: np.ndarray, banned: int) -> int:
        mask = np.ones(n, dtype=bool)
        mask[banned] = False
        if mode == "uniform":
            probs = mask / mask.sum()
        else:
            s = np.where(mask, scores, -np.inf)
            e = np.exp(s - s[mask].max())
            probs = e / e.sum()
        return rng.choice(n, p=probs)

    neg_txt = [draw(coarse_sims[i, :], i) for i in range(n)]
    neg_img = [draw(coarse_sims[:, j], j) for j in range(n)]
    return neg_txt, neg_img


def fusion_triplet_loss(pos: Tensor, neg_img: Tensor, neg_txt: Tensor,
                        margin: float, direction: str = "standard") -> Tensor:
    """Squared hinge separating the positive logit from both negatives by
    ``margin``. The ``printed`` direction swaps the operands."""
    if margin < 0:
        raise ValueError("margin must be nonnegative")

    def hinge(neg):
        if direction == "standard":
            gap = nx.add(nx.sub(neg, pos), Tensor(margin))
        elif direction == "printed":
            gap = nx.add(nx.sub(pos, neg), Tensor(margin))
        else:
            raise ValueError(f"unknown triplet direction {direction!r}")
        r = nx.relu(gap)
        return nx.mul(r, r)

    return nx.add(hinge(neg_img), hinge(neg_txt))


def mpm_logits(fusion: FusionOutput, position: int, params: Params) -> Tensor:
    """Classifier logits over the vocabulary at one fused phrase position."""
    row = nx.as_row(nx.take_row(fusion.reps, position))
    hidden = nx.tanh(nx.add(nx.matmul(row, params["mpm.w1"]), params["mpm.b1"]))
    out = nx.add(nx.matmul(hidden, params["mpm.w2"]), params["mpm.b2"])
    return nx.reshape(out, (out.shape[1],))


def masked_phrase_loss(fusion: FusionOutput, masked: MaskedPhrase, params: Params,
                       positions: str = "masked") -> Tensor:
    """Cross-entropy of the classifier against the original token.

    ``masked`` scores the [MASK] position only; ``all`` sums the original
    token's cross-entropy over every phrase position.
    """
    n_tokens = len(masked.token_ids)
    if fusion.reps.shape[0] != n_tokens + 1:
        raise ValueError(f"fusion rows {fusion.reps.shape[0]} do not cover "
                         f"{n_tokens} phrase tokens")
    if positions == "masked":
        logits = mpm_logits(fusion, masked.mask_index + 1, params)
        return nx.cross_entropy_logits(logits, masked.target_id)
    if positions != "all":
        raise ValueError(f"unknown positions mode {positions!r}")
    originals = list(masked.token_ids)
    originals[masked.mask_index] = masked.target_id
    return nx.sum_n([nx.cross_entropy_logits(mpm_logits(fusion, j + 1, params), target)
                     for j, target in enumerate(originals)])


def total_loss(itc: Tensor, itm: Tensor, tri: Tensor | None,
               per_phrase: list, stage: int, phrase_scale: float = 1.0,
               p_i2t: np.ndarray | None = None, p_t2i: np.ndarray | None = None):
    """Combine the loss terms; stage 1 keeps only the contrastive and
    matching terms. Returns (total, breakdown)."""
    if stage == 1 or not per_phrase:
        biatt_t = mpm_t = None
    else:
        biatt_t = nx.mul(nx.sum_n([b for b, _ in per_phrase]), phrase_scale)
        mpm_t = nx.mul(nx.sum_n([m for _, m in per_phrase]), phrase_scale)

    terms = [itc, itm]
    if stage != 1 and tri is not None:
        terms.append(tri)
    if biatt_t is not None:
        terms += [biatt_t, mpm_t]
    total = nx.sum_n(terms)

    breakdown = LossBreakdown(
        itc=float(itc.data),
        itm=float(itm.data),
        tri=0.0 if (stage == 1 or tri is None) else float(tri.data),
        biatt=0.0 if biatt_t is None else float(biatt_t.data),
        mpm=0.0 if mpm_t is None else float(mpm_t.data),
        total=float(total.data),
        p_i2t=p_i2t, p_t2i=p_t2i,
    )
    return total, breakdown
