"""Unimodal encoders, the multi-head cross-modal encoder with attention
tracing, momentum shadows of the unimodal weights, and checkpoint files in
the :func:`numerics.save_arrays` container.

The encoders are deliberately small: linear patch/token embeddings plus
standard post-norm self-attention blocks. The cross-modal encoder runs
self-attention over the text rows, cross-attention with text queries against
image keys/values, then a feed-forward, per layer; one layer's attention
matrices and projected values can be captured as a trace. The same
cross-modal parameters serve the image-text and image-phrase streams. Heads
are the leading array axis: ``wq``/``wk``/``wv`` are (heads, d, head_dim).
Pairs that share an image can share its cross-attention keys and values:
given an image index per pair, each cross layer projects every distinct
image once and gathers the projected rows per pair.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np

from . import numerics as nx
from .numerics import Tensor, Rng
from .textproc import CLS_ID, PAD_ID, UNK_ID

CHECKPOINT_VERSION = 2   # 2: stacked (heads, d, head_dim) attention weights
_CKPT_MAGIC = b"PACKPT01"

INIT_STD = 0.02
INIT_TEMPERATURE = 0.07


@dataclasses.dataclass
class ModelConfig:
    d: int = 32                   # representation width
    heads: int = 4                # d must divide evenly; head width d' = d/heads
    n_self_layers: int = 1
    n_cross_layers: int = 6
    bidiratt_layer: int = 3       # 1-based cross layer whose attention is traced
    proj_dim: int = 16            # width of the coarse-similarity embeddings
    patch_rows: int = 8
    patch_cols: int = 8
    patch_pixels: int = 48
    max_text_len: int = 50
    vocab_size: int = 0           # filled from the text pipeline
    ffn_mult: int = 2
    biatt_row: str = "mask"       # "mask" or "cls": row read for forward attention
    biatt_phrase: str = "masked"  # "masked" or "clean": phrase fed to the local stream
    mpm_positions: str = "masked"  # "masked" or "all": positions scored by the MPM loss
    tie_score_head: bool = False

    @property
    def head_dim(self) -> int:
        return self.d // self.heads

    @property
    def n_patches(self) -> int:
        return self.patch_rows * self.patch_cols

    def validate(self) -> None:
        for field in ("d", "heads", "n_self_layers", "n_cross_layers", "proj_dim",
                      "patch_rows", "patch_cols", "patch_pixels", "max_text_len",
                      "ffn_mult"):
            low = 0 if field == "n_self_layers" else 1
            if getattr(self, field) < low:
                raise ValueError(f"{field} must be at least {low}")
        if self.d % self.heads != 0:
            raise ValueError(f"width {self.d} not divisible by {self.heads} heads")
        if not 1 <= self.bidiratt_layer <= self.n_cross_layers:
            raise ValueError(f"bidiratt_layer {self.bidiratt_layer} outside "
                             f"1..{self.n_cross_layers}")
        if self.patch_pixels % 3 != 0:
            raise ValueError("patch_pixels must hold whole RGB triples")
        if self.vocab_size < 4:
            raise ValueError("vocab_size must include the reserved tokens")
        for field, allowed in (("biatt_row", ("mask", "cls")),
                               ("biatt_phrase", ("masked", "clean")),
                               ("mpm_positions", ("masked", "all"))):
            if getattr(self, field) not in allowed:
                raise ValueError(f"{field} must be one of {allowed}")


class Params:
    """Named parameter tensors in a fixed creation order, optionally starting
    from an existing name -> tensor mapping."""

    def __init__(self, tensors: dict[str, Tensor] | None = None):
        self._tensors: dict[str, Tensor] = dict(tensors or {})

    def add(self, name: str, data: np.ndarray) -> Tensor:
        t = Tensor(data, requires_grad=True, op=f"param:{name}")
        self._tensors[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def names(self) -> list[str]:
        return list(self._tensors)

    def named(self):
        return self._tensors.items()

    def zero_grads(self) -> None:
        nx.zero_grads(self._tensors.values())

    @contextlib.contextmanager
    def substituted(self, name: str, tensor: Tensor):
        """``tensor`` in place of the parameter ``name`` for the length of the
        ``with`` block; the original is restored on exit."""
        original = self._tensors[name]
        self._tensors[name] = tensor
        try:
            yield
        finally:
            self._tensors[name] = original


# momentum shadows mirror the unimodal encoders and the coarse projections
_MOMENTUM_PREFIXES = ("embed.", "img_self", "txt_self", "proj.")


def is_momentum_mirrored(name: str) -> bool:
    return name.startswith(_MOMENTUM_PREFIXES)


@dataclasses.dataclass
class MomentumState:
    shadow: dict
    alpha: float

    @classmethod
    def from_params(cls, params: Params, alpha: float) -> "MomentumState":
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"momentum coefficient {alpha} outside [0, 1)")
        shadow = {name: Tensor(t.data.copy(), op=f"momentum:{name}")
                  for name, t in params.named() if is_momentum_mirrored(name)}
        return cls(shadow=shadow, alpha=alpha)


def momentum_update(live: Params, state: MomentumState) -> None:
    """shadow <- alpha * shadow + (1 - alpha) * live, elementwise."""
    a = state.alpha
    for name, shadow in state.shadow.items():
        src = live[name]
        if src.data.shape != shadow.data.shape:
            raise ValueError(f"momentum shape drift on {name}: "
                             f"{shadow.data.shape} vs {src.data.shape}")
        shadow.data *= a
        shadow.data += (1.0 - a) * src.data


# ---------------------------------------------------------------------------
# initialization


def init_params(cfg: ModelConfig, rng: Rng) -> Params:
    """Truncated-normal weights (std 0.02), zero biases, temperature 0.07."""
    cfg.validate()
    p = Params()
    d, dh, v = cfg.d, cfg.head_dim, cfg.vocab_size

    def w(name, *shape):
        p.add(name, rng.truncated_normal(shape, INIT_STD))

    def zeros(name, *shape):
        p.add(name, np.zeros(shape))

    def ones(name, *shape):
        p.add(name, np.ones(shape))

    w("embed.patch.w", cfg.patch_pixels, d)
    zeros("embed.patch.b", d)
    w("embed.token", v, d)
    w("embed.pos_img", cfg.n_patches + 1, d)
    w("embed.pos_txt", cfg.max_text_len + 1, d)
    w("embed.cls_img", 1, d)

    def attention_block(prefix):
        # draw order per head: q, k, v, so every seed keeps its values
        draws = [[rng.truncated_normal((d, dh), INIT_STD) for _ in range(3)]
                 for _ in range(cfg.heads)]
        for name, per_head in zip(("wq", "wk", "wv"), zip(*draws)):
            p.add(f"{prefix}.{name}", np.stack(per_head))
        w(f"{prefix}.out.w", d, d)
        zeros(f"{prefix}.out.b", d)

    def ffn_block(prefix):
        w(f"{prefix}.w1", d, cfg.ffn_mult * d)
        zeros(f"{prefix}.b1", cfg.ffn_mult * d)
        w(f"{prefix}.w2", cfg.ffn_mult * d, d)
        zeros(f"{prefix}.b2", d)

    def ln(prefix):
        ones(f"{prefix}.g", d)
        zeros(f"{prefix}.b", d)

    for stream in ("img_self", "txt_self"):
        for layer in range(cfg.n_self_layers):
            attention_block(f"{stream}{layer}.attn")
            ln(f"{stream}{layer}.ln1")
            ffn_block(f"{stream}{layer}.ffn")
            ln(f"{stream}{layer}.ln2")

    for layer in range(cfg.n_cross_layers):
        attention_block(f"cross{layer}.self")
        ln(f"cross{layer}.ln1")
        attention_block(f"cross{layer}.cross")
        ln(f"cross{layer}.ln2")
        ffn_block(f"cross{layer}.ffn")
        ln(f"cross{layer}.ln3")

    w("score.w", dh, 1)
    w("itm.w", d, 1)
    w("proj.img.w", d, cfg.proj_dim)
    w("proj.txt.w", d, cfg.proj_dim)
    w("mpm.w1", d, d)
    zeros("mpm.b1", d)
    w("mpm.w2", d, v)
    zeros("mpm.b2", v)
    p.add("temp.log_tau", np.log(INIT_TEMPERATURE))
    return p


# ---------------------------------------------------------------------------
# outputs and traces


# key bias of padding rows: finite, since Tensor rejects -inf, and far enough
# below any score that its softmax weight is exactly 0
PAD_BIAS = -1e30


@dataclasses.dataclass
class EncoderOutput:
    """Encoded rows of one sequence, (L+1, d), or of a batch of sequences
    padded to the longest, (B, L_max+1, d); row 0 is the global [CLS] row.
    A batch whose lengths differ carries ``pad_bias``, a constant
    (B, 1, 1, L_max+1) key bias: 0 on real rows, ``PAD_BIAS`` on padding."""

    reps: Tensor
    pad_bias: Tensor | None = None

    @property
    def cls(self) -> Tensor:
        return nx.take_row(self.reps, 0)

    def select(self, index) -> "EncoderOutput":
        """Sequences ``index`` of a batch (repeats allowed), in that order,
        with their ``pad_bias`` rows."""
        bias = None if self.pad_bias is None else Tensor(self.pad_bias.data[index])
        return EncoderOutput(nx.gather_rows(self.reps, index), bias)


@dataclasses.dataclass
class AttentionTrace:
    """Attention state of one cross-attention layer, head as an axis; a
    batched cross-encode adds a leading pair axis, and padded text rows of a
    pair hold finite values nothing reads."""

    layer: int                  # 1-based
    attn: Tensor                # ([B,] heads, L_text+1, L_img+1), rows sum to 1
    values: Tensor              # ([B,] heads, L_img+1, head_dim)


@dataclasses.dataclass
class FusionOutput:
    reps: Tensor                # ([B,] L_text+1, d), as the text input
    trace: AttentionTrace | None = None

    @property
    def cls(self) -> Tensor:
        return nx.take_row(self.reps, 0)


# ---------------------------------------------------------------------------
# blocks


def _head_axis(x: Tensor) -> Tensor:
    """(B, L, d) rows as (B, 1, L, d), so that a (heads, d, w) weight
    broadcasts over the pairs; a (L, d) matrix already broadcasts."""
    return x if x.data.ndim == 2 else nx.reshape(x, x.shape[:-2] + (1,) + x.shape[-2:])


def _multi_head_attention(queries_from: Tensor, keys_values_from: Tensor,
                          params: Params, prefix: str, cfg: ModelConfig,
                          key_bias: Tensor | None = None, kv_index=None):
    """Scaled dot-product attention over all heads (and pairs) at once, with
    ``key_bias`` added to the scores. With ``kv_index``, keys and values are
    projected once per entry of ``keys_values_from`` and pair b attends to
    entry ``kv_index[b]``. Returns the output rows, the ([B,] heads, L_q,
    L_kv) attention and the ([B,] heads, L_kv, head_dim) values."""
    x_q = _head_axis(queries_from)
    x_kv = x_q if keys_values_from is queries_from else _head_axis(keys_values_from)
    # scale q, not the scores: (heads, L, L) temporaries are the costly ones
    q = nx.mul(nx.matmul(x_q, params[f"{prefix}.wq"]), 1.0 / np.sqrt(cfg.head_dim))
    k = nx.matmul(x_kv, params[f"{prefix}.wk"])
    v = nx.matmul(x_kv, params[f"{prefix}.wv"])
    if kv_index is not None:
        k, v = nx.gather_rows(k, kv_index), nx.gather_rows(v, kv_index)
    scores = nx.matmul(q, nx.transpose(k))
    if key_bias is not None:
        scores = nx.add(scores, key_bias)
    a = nx.row_softmax(scores)
    out = nx.add(nx.matmul(nx.merge_heads(nx.matmul(a, v)), params[f"{prefix}.out.w"]),
                 params[f"{prefix}.out.b"])
    return out, a, v


def _ffn(x: Tensor, params: Params, prefix: str) -> Tensor:
    h = nx.tanh(nx.add(nx.matmul(x, params[f"{prefix}.w1"]), params[f"{prefix}.b1"]))
    return nx.add(nx.matmul(h, params[f"{prefix}.w2"]), params[f"{prefix}.b2"])


def _post_norm(x: Tensor, delta: Tensor, params: Params, prefix: str) -> Tensor:
    return nx.layer_norm_rows(nx.add(x, delta), params[f"{prefix}.g"],
                              params[f"{prefix}.b"])


def _self_block(x: Tensor, params: Params, prefix: str, cfg: ModelConfig,
                key_bias: Tensor | None = None) -> Tensor:
    attn, _, _ = _multi_head_attention(x, x, params, f"{prefix}.attn", cfg, key_bias)
    x = _post_norm(x, attn, params, f"{prefix}.ln1")
    x = _post_norm(x, _ffn(x, params, f"{prefix}.ffn"), params, f"{prefix}.ln2")
    return x


# ---------------------------------------------------------------------------
# encoders


def encode_image(patches, params: Params, cfg: ModelConfig,
                 mode: str = "train") -> EncoderOutput:
    """Linear patch embedding + positions + [CLS] + self-attention layers,
    for one image's (n_patches, patch_pixels) patches or a (B, n_patches,
    patch_pixels) stack of images in one call; images are never padded."""
    patches = patches if isinstance(patches, Tensor) else Tensor(patches)
    if patches.data.ndim not in (2, 3) or \
            patches.shape[-2:] != (cfg.n_patches, cfg.patch_pixels):
        raise nx.ShapeError(
            f"expected {cfg.n_patches} patches of {cfg.patch_pixels} pixels per "
            f"image, for one image or a stack, got shape {patches.shape}")
    ctx = nx.no_grad() if mode == "infer" else contextlib.nullcontext()
    with ctx:
        x = nx.add(nx.matmul(patches, params["embed.patch.w"]), params["embed.patch.b"])
        x = nx.prepend_row(params["embed.cls_img"], x)
        x = nx.add(x, params["embed.pos_img"])
        for layer in range(cfg.n_self_layers):
            x = _self_block(x, params, f"img_self{layer}", cfg)
        return EncoderOutput(x)


def encode_text(token_ids, params: Params, cfg: ModelConfig,
                mode: str = "train") -> EncoderOutput:
    """Token embedding + positions + [CLS] + self-attention layers, for one
    id list or a sequence of id lists in one call. A batch is padded with
    ``PAD_ID`` to the longest text; if lengths differ it carries
    ``pad_bias``, which gives the padding weight 0 in the self-attention.

    Unknown ids fall back to the [UNK] row. Phrases reuse the text positional
    rows from position 0."""
    batched = len(token_ids) > 0 and not isinstance(token_ids[0], (int, np.integer))
    texts = token_ids if batched else [token_ids]
    rows = [len(t) + 1 for t in texts]
    if max(rows) > cfg.max_text_len + 1:
        raise nx.ShapeError(f"text length {max(rows) - 1} exceeds {cfg.max_text_len}")
    ids = np.full((len(texts), max(rows)), PAD_ID)
    for b, t in enumerate(texts):
        ids[b, :rows[b]] = [CLS_ID] + [i if 0 <= i < cfg.vocab_size else UNK_ID
                                       for i in t]
    real = np.arange(max(rows)) < np.array(rows)[:, None]
    pad_bias = None if real.all() else \
        Tensor(np.where(real, 0.0, PAD_BIAS)[:, None, None, :])
    ctx = nx.no_grad() if mode == "infer" else contextlib.nullcontext()
    with ctx:
        x = nx.gather_rows(params["embed.token"], ids if batched else ids[0])
        x = nx.add(x, nx.slice_rows(params["embed.pos_txt"], 0, max(rows)))
        for layer in range(cfg.n_self_layers):
            x = _self_block(x, params, f"txt_self{layer}", cfg, pad_bias)
        return EncoderOutput(x, pad_bias)


def coarse_embeddings(images, token_ids, params: Params, cfg: ModelConfig):
    """Encode a batch of images and a batch of texts, one encoder call each,
    and project their [CLS] rows into the coarse space, one unit row per item.

    Returns (image output, text output, image embeddings, text embeddings).
    """
    img_out = encode_image(np.stack(images), params, cfg)
    txt_out = encode_text(token_ids, params, cfg)
    return (img_out, txt_out,
            nx.l2_normalize_rows(nx.matmul(img_out.cls, params["proj.img.w"])),
            nx.l2_normalize_rows(nx.matmul(txt_out.cls, params["proj.txt.w"])))


def cross_encode(text_out: EncoderOutput, img_out: EncoderOutput, params: Params,
                 cfg: ModelConfig, trace_layer: int | None = None,
                 mode: str = "train", image_index=None) -> FusionOutput:
    """Per layer: self-attention over text rows, cross-attention with text
    queries against image keys/values, feed-forward. ``trace_layer`` (1-based)
    captures that layer's attention trace.

    Takes one pair, or a batch of pairs: text and image reps with the same
    leading pair axis, as the batched encoders give them or
    :meth:`EncoderOutput.select` picks them. Or a batch of texts, a stack of
    images and ``image_index``, the image of each text (repeats allowed):
    then every cross layer projects each image's keys and values once and
    gathers them per pair, which gives the same numbers as the selected
    images. A text batch's ``pad_bias`` keeps its padding out of the text
    self-attention; image rows are never padded. The fused reps and the
    trace keep the pair axis."""
    if trace_layer is not None and not 1 <= trace_layer <= cfg.n_cross_layers:
        raise ValueError(f"trace_layer {trace_layer} outside 1..{cfg.n_cross_layers}")
    index = None if image_index is None else np.asarray(image_index, dtype=np.intp)
    pairs = img_out.reps.shape[:-2] if index is None else index.shape
    if text_out.reps.shape[:-2] != pairs or img_out.pad_bias is not None or \
            (index is not None and img_out.reps.data.ndim != 3):
        raise nx.ShapeError(f"need one unpadded image per text: text "
                            f"{text_out.reps.shape}, image {img_out.reps.shape}"
                            + ("" if index is None else f", index {index.shape}"))
    if index is not None and ((index < 0) | (index >= len(img_out.reps.data))).any():
        raise IndexError(f"image index {index.tolist()} outside "
                         f"0..{len(img_out.reps.data) - 1}")
    ctx = nx.no_grad() if mode == "infer" else contextlib.nullcontext()
    with ctx:
        x = text_out.reps
        trace = None
        for layer in range(cfg.n_cross_layers):
            prefix = f"cross{layer}"
            attn, _, _ = _multi_head_attention(x, x, params, f"{prefix}.self", cfg,
                                               text_out.pad_bias)
            x = _post_norm(x, attn, params, f"{prefix}.ln1")
            cross, a, v = _multi_head_attention(x, img_out.reps, params,
                                                f"{prefix}.cross", cfg,
                                                kv_index=index)
            if layer + 1 == trace_layer:
                trace = AttentionTrace(layer + 1, a, v)
            x = _post_norm(x, cross, params, f"{prefix}.ln2")
            x = _post_norm(x, _ffn(x, params, f"{prefix}.ffn"), params, f"{prefix}.ln3")
        return FusionOutput(x, trace)


# ---------------------------------------------------------------------------
# checkpoints


class CheckpointError(ValueError):
    """A checkpoint file is malformed or has an unsupported version."""


def save_checkpoint(path, named_tensors: dict) -> None:
    """Write ``named_tensors`` (arrays or Tensors) into directory ``path`` with
    :func:`numerics.save_arrays`, under the checkpoint magic and version."""
    nx.save_arrays(path, _CKPT_MAGIC, {"format_version": CHECKPOINT_VERSION},
                   named_tensors)


def load_checkpoint(path) -> dict:
    """Read a directory written by :func:`save_checkpoint` into name -> array.
    A malformed file raises CheckpointError, naming the tensor where there is
    one."""
    return nx.load_arrays(path, _CKPT_MAGIC, CHECKPOINT_VERSION, CheckpointError)[1]


def params_state(params: Params, momentum: MomentumState | None = None) -> dict:
    state = dict(params.named())
    if momentum is not None:
        for name, tensor in momentum.shadow.items():
            state[f"momentum/{name}"] = tensor
    return state


def load_params_state(params: Params, momentum: MomentumState | None,
                      state: dict) -> None:
    """Copy ``state`` (names as in :func:`params_state`) into the live and
    momentum tensors. Nothing is written unless every tensor is present with
    its exact shape; otherwise ValueError names the first offender."""
    targets = params_state(params, momentum)
    for name, tensor in targets.items():
        if name not in state:
            raise ValueError(f"state has no tensor {name!r}")
        shape = np.shape(state[name])
        if shape != tensor.data.shape:
            raise ValueError(f"tensor {name!r} has shape {shape}, "
                             f"expected {tensor.data.shape}")
    for name, tensor in targets.items():
        tensor.data[...] = state[name]
