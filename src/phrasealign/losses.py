"""Contrastive, matching, triplet, and masked-phrase losses plus the total
objective.

The contrastive term scores each live embedding against the momentum
embeddings of its batch plus two fixed-capacity queues of past momentum
embeddings; queue entries are always negatives. Matching and triplet terms
run on the fused [CLS] scalar logit. The masked-phrase term classifies the
original token at each phrase's [MASK] row, the one row per phrase its
cross-encode returns.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from . import numerics as nx
from .numerics import Rng, Tensor
from .model import EncoderOutput
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
        dim = self.q_img.shape[1]
        if img_rows.shape != txt_rows.shape or img_rows.shape[1] != dim:
            raise nx.ShapeError(f"enqueue needs matching (n, {dim}) rows: "
                                f"image {img_rows.shape}, text {txt_rows.shape}")
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


def itc_loss(img_emb: Tensor, txt_emb: Tensor, mom_img: np.ndarray,
             mom_txt: np.ndarray, queue: QueueState, tau: Tensor) -> Tensor:
    """Symmetric contrastive loss over batch momentum embeddings plus queued
    negatives; the matching batch index is the positive. The queue is only
    read; the caller enqueues the batch's momentum embeddings afterwards.
    """
    if float(tau.data) <= 0.0:
        raise ValueError(f"temperature must be positive, got {float(tau.data)}")
    shapes = [img_emb.shape, txt_emb.shape, mom_img.shape, mom_txt.shape]
    if len(set(shapes)) != 1:
        raise nx.ShapeError(f"live and momentum embeddings differ in shape: {shapes}")
    n = img_emb.shape[0]
    cand_txt = Tensor(np.vstack([mom_txt, queue.text_candidates()]).T)
    cand_img = Tensor(np.vstack([mom_img, queue.image_candidates()]).T)
    logits_i2t = nx.div(nx.linear(img_emb, cand_txt), tau)
    logits_t2i = nx.div(nx.linear(txt_emb, cand_img), tau)
    # both directions have n + queue-fill candidates: one cross-entropy over
    # the 2n rows, each row's positive at its batch index
    ce = nx.cross_entropy_logits(nx.concat([logits_i2t, logits_t2i]),
                                 np.tile(np.arange(n), 2))
    return nx.mul(nx.sum_all(ce), 0.5 / n)


def fine_similarity(fusion_cls: Tensor, w_o: Tensor) -> Tensor:
    """Matching logit of a fused [CLS] representation: a scalar from a (d,)
    row, or (B,) logits from the (B, d) rows of a batch of pairs."""
    return nx.reshape(nx.linear(fusion_cls, w_o), fusion_cls.shape[:-1])


def itm_loss(logits: Tensor, labels) -> Tensor:
    """Binary cross-entropy of a vector of matching logits against their 0/1
    labels, summed and normalized by the number of positive pairs."""
    labels = np.asarray(labels, dtype=np.float64)
    if not labels.size:
        raise ValueError("itm_loss needs at least one pair")
    n_pos = int((labels >= 0.5).sum())
    return nx.mul(nx.sum_all(nx.binary_cross_entropy_logit(logits, labels)),
                  1.0 / max(1, n_pos))


def sample_negatives(identities: list, coarse_sims: np.ndarray, rng: Rng,
                     mode: str = "hard"):
    """One negative text per image and one negative image per text.

    Hard mode draws proportionally to the softmax of coarse similarity over
    non-matching batch candidates; uniform mode ignores the similarities.
    Returns (neg_text_index_per_image, neg_image_index_per_text); empty lists
    for a batch of one.
    """
    if mode not in ("hard", "uniform"):
        raise ValueError(f"unknown negative sampling mode {mode!r}")
    n = len(identities)
    if n < 2:
        log.info("batch of one: no negatives, matching loss covers positives only")
        return [], []

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
    """Squared hinge separating each positive logit from both of its
    negatives by ``margin``, averaged over the pairs (scalars or same-shape
    vectors). The ``printed`` direction swaps the operands."""
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

    return nx.mean_all(nx.add(hinge(neg_img), hinge(neg_txt)))


def masked_phrase_loss(fusion: EncoderOutput, masked: list[MaskedPhrase],
                       params: dict) -> Tensor:
    """Cross-entropy of the classifier against each phrase's original token
    at its [MASK] row, one value per pair of a fused batch with its B masked
    phrases. The fusion holds exactly those rows (``fusion.rows``), (B, 1, d),
    as a cross-encode given the phrases' [MASK] rows returns them.
    """
    if fusion.reps is None:
        raise ValueError("the pass read no row and holds only the trace")
    mask_rows = [phrase.mask_index + 1 for phrase in masked]
    if fusion.rows is None or not np.array_equal(
            np.broadcast_to(fusion.rows, fusion.reps.shape[:1]), mask_rows):
        held = "every row" if fusion.rows is None else \
            f"rows {np.asarray(fusion.rows).tolist()}"
        raise ValueError(f"fusion holds {held}; MPM reads rows {mask_rows}")
    head = (params["mpm.w1"], params["mpm.b1"], params["mpm.w2"], params["mpm.b2"])
    targets = np.array([[phrase.target_id] for phrase in masked])
    ce = nx.cross_entropy_logits(nx.tanh_mlp(fusion.reps, *head), targets)
    return nx.reshape(ce, (len(masked),))


def total_loss(itc: Tensor, itm: Tensor, tri: Tensor | None, biatt: Tensor | None,
               mpm: Tensor | None, phrase_scale: float = 1.0):
    """Sum the loss terms it is given; a term passed as None counts 0.
    ``biatt`` and ``mpm`` hold one value per phrase, summed and scaled by
    ``phrase_scale``. Which terms a training stage builds is decided by
    ``trainer.train_step``. Returns (total, breakdown): the summed Tensor
    and each term's value as a float."""
    biatt_t, mpm_t = (None if v is None else nx.mul(nx.sum_all(v), phrase_scale)
                      for v in (biatt, mpm))
    total = nx.sum_n([t for t in (itc, itm, tri, biatt_t, mpm_t) if t is not None])

    breakdown = LossBreakdown(
        itc=float(itc.data),
        itm=float(itm.data),
        tri=0.0 if tri is None else float(tri.data),
        biatt=0.0 if biatt_t is None else float(biatt_t.data),
        mpm=0.0 if mpm_t is None else float(mpm_t.data),
        total=float(total.data),
    )
    return total, breakdown
