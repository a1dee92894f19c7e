"""Seeded synthetic person-attribute corpus, its on-disk format, and batching.

Each identity is a tuple of garment attributes. Images render those
attributes as solid-color horizontal bands on a patch grid (accessory band on
top, then the upper garment, then the lower garment) plus per-image pixel
noise, and captions describe the same attributes through small templates, so
ground-truth alignment between caption phrases and image regions exists by
construction.

On disk a dataset is the :func:`numerics.save_arrays` container: records and
splits in ``manifest.json``, every image in one ``images`` tensor.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .numerics import Rng, load_arrays, save_arrays
from .textproc import Phrase, TextPipeline, mask_phrase

FORMAT_VERSION = 2   # 2: records in the manifest, images as one tensor
_MAGIC = b"PATTR001"

COLOR_RGB = {
    "black": (0.05, 0.05, 0.05),
    "white": (0.95, 0.95, 0.95),
    "red": (0.90, 0.10, 0.10),
    "blue": (0.10, 0.20, 0.90),
    "green": (0.10, 0.80, 0.15),
    "yellow": (0.95, 0.90, 0.10),
    "purple": (0.60, 0.15, 0.80),
    "orange": (0.95, 0.55, 0.10),
}
COLORS = tuple(COLOR_RGB)
TOP_TYPES = ("shirt", "jacket", "sweater", "coat")
BOTTOM_TYPES = ("pants", "shorts", "jeans", "trousers")
ACCESSORY_TYPES = ("hat", "cap", "scarf", "backpack")
PERSON_WORDS = ("man", "woman", "person")

ATTRIBUTE_SCHEMA = {
    "top_color": COLORS,
    "top_type": TOP_TYPES,
    "bottom_color": COLORS,
    "bottom_type": BOTTOM_TYPES,
    "accessory_color": COLORS,
    "accessory_type": ACCESSORY_TYPES,
}

_TEMPLATES = (
    "the {p} is wearing a {tc} {tt} and {bc} {bt} .",
    "a {p} in a {tc} {tt} with {bc} {bt} and a {ac} {at} .",
    "the {p} wears a {tc} {tt} with {bc} {bt} .",
    "a {p} with a {ac} {at} is wearing a {tc} {tt} and {bc} {bt} .",
)


class FormatError(ValueError):
    """A dataset file is malformed or has an unsupported version."""


class GenerationError(ValueError):
    """Requested corpus cannot be generated (bad config, or attribute space too small)."""


@dataclasses.dataclass
class DataConfig:
    n_identities: int = 8
    images_per_identity: int = 4
    test_images_per_identity: int = 1
    patch_rows: int = 8
    patch_cols: int = 8
    patch_pixels: int = 48  # 4x4 pixels x RGB
    noise_sigma: float = 0.05


_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(DataConfig))


def _check_config(values: dict, error: type, where: str) -> None:
    """Raise ``error``, its message starting ``where``, at the first
    :class:`DataConfig` entry of ``values`` (field -> value) that no corpus
    can have. Generation shares it with :func:`load_dataset`."""
    for key in _CONFIG_KEYS:
        value = values[key]
        if key == "noise_sigma":
            want = "a finite number >= 0"
            ok = isinstance(value, (int, float)) and not isinstance(value, bool) \
                and 0.0 <= value < math.inf
        else:
            step = 3 if key == "patch_pixels" else 1   # whole RGB triples
            low = step if key.startswith("patch_") else 0
            want = f"an integer >= {low}" if step == 1 else f"a multiple of {step} >= {low}"
            ok = type(value) is int and value >= low and value % step == 0
        if not ok:
            raise error(f"{where} {key!r} is {value!r}, not {want}")


@dataclasses.dataclass
class PersonRecord:
    identity: int
    attributes: dict
    image: np.ndarray  # (rows*cols, patch_pixels), values in [0, 1]
    caption: str


@dataclasses.dataclass
class Dataset:
    config: DataConfig
    records: list
    train_indices: list
    test_indices: list

    def train_records(self) -> list:
        return [self.records[i] for i in self.train_indices]

    def test_records(self) -> list:
        return [self.records[i] for i in self.test_indices]


# ---------------------------------------------------------------------------
# image regions


def region_row_bounds(rows: int) -> dict[str, tuple[int, int]]:
    """Half-open row ranges of the three attribute bands."""
    r1 = max(1, round(rows * 0.25))
    r2 = max(r1 + 1, round(rows * 0.625))
    return {"accessory": (0, r1), "top": (r1, r2), "bottom": (r2, rows)}


def region_patch_indices(slot: str, rows: int, cols: int) -> set[int]:
    """1-based patch indices (matching attention positions) of a band. A
    grid too small to hold the band (no rows of it inside the grid) raises
    ``ValueError``."""
    r0, r1 = region_row_bounds(rows)[slot]
    if not r0 < r1 <= rows:
        raise ValueError(f"a grid of {rows} patch rows is too small for the "
                         f"{slot!r} band")
    return {r * cols + c + 1 for r in range(r0, r1) for c in range(cols)}


def slot_of_phrase(phrase: Phrase) -> str | None:
    """Which attribute band a chunked phrase describes, if any."""
    for word in phrase.words:
        if word in TOP_TYPES:
            return "top"
        if word in BOTTOM_TYPES:
            return "bottom"
        if word in ACCESSORY_TYPES:
            return "accessory"
    return None


def render_image(attributes: dict, cfg: DataConfig, rng: Rng) -> np.ndarray:
    """Solid color bands plus seeded pixel noise, clipped to [0, 1]."""
    bounds = region_row_bounds(cfg.patch_rows)
    colors = {
        "accessory": COLOR_RGB[attributes["accessory_color"]],
        "top": COLOR_RGB[attributes["top_color"]],
        "bottom": COLOR_RGB[attributes["bottom_color"]],
    }
    n_px = cfg.patch_pixels // 3
    image = np.zeros((cfg.patch_rows * cfg.patch_cols, cfg.patch_pixels))
    for slot, (r0, r1) in bounds.items():
        patch = np.tile(np.asarray(colors[slot]), n_px)
        for r in range(r0, r1):
            image[r * cfg.patch_cols:(r + 1) * cfg.patch_cols] = patch
    image += rng.normal(image.shape, cfg.noise_sigma)
    return np.clip(image, 0.0, 1.0)


def make_caption(attributes: dict, rng: Rng) -> str:
    template = _TEMPLATES[rng.integer(len(_TEMPLATES))]
    return template.format(
        p=PERSON_WORDS[rng.integer(len(PERSON_WORDS))],
        tc=attributes["top_color"], tt=attributes["top_type"],
        bc=attributes["bottom_color"], bt=attributes["bottom_type"],
        ac=attributes["accessory_color"], at=attributes["accessory_type"],
    )


# ---------------------------------------------------------------------------
# generation


def _sample_attributes(n_identities: int, rng: Rng) -> list[dict]:
    # distinct garment tuples per identity; the three colors of one identity
    # are kept pairwise distinct so each band is unambiguous ground truth
    capacity = (len(COLORS) * (len(COLORS) - 1) * len(TOP_TYPES) * len(BOTTOM_TYPES))
    if n_identities > capacity:
        raise GenerationError(
            f"cannot draw {n_identities} distinct identities from "
            f"{capacity} garment combinations")
    seen = set()
    out = []
    while len(out) < n_identities:
        tc = COLORS[rng.integer(len(COLORS))]
        bc = COLORS[rng.integer(len(COLORS))]
        if bc == tc:
            continue
        tt = TOP_TYPES[rng.integer(len(TOP_TYPES))]
        bt = BOTTOM_TYPES[rng.integer(len(BOTTOM_TYPES))]
        key = (tc, tt, bc, bt)
        if key in seen:
            continue
        seen.add(key)
        others = [c for c in COLORS if c not in (tc, bc)]
        out.append({
            "top_color": tc, "top_type": tt,
            "bottom_color": bc, "bottom_type": bt,
            "accessory_color": others[rng.integer(len(others))],
            "accessory_type": ACCESSORY_TYPES[rng.integer(len(ACCESSORY_TYPES))],
        })
    return out


def generate_dataset(cfg: DataConfig, rng: Rng) -> Dataset:
    _check_config(dataclasses.asdict(cfg), GenerationError, "config entry")
    if cfg.n_identities < 2:
        raise GenerationError("need at least 2 identities")
    if not 0 < cfg.test_images_per_identity < cfg.images_per_identity:
        raise GenerationError("test split must leave train and test images "
                              "for every identity")
    attrs = _sample_attributes(cfg.n_identities, rng)
    records = []
    train_indices, test_indices = [], []
    for identity, attributes in enumerate(attrs):
        first = len(records)
        for _ in range(cfg.images_per_identity):
            records.append(PersonRecord(
                identity=identity,
                attributes=dict(attributes),
                image=render_image(attributes, cfg, rng),
                caption=make_caption(attributes, rng),
            ))
        order = [first + int(i) for i in rng.permutation(cfg.images_per_identity)]
        test_indices.extend(order[:cfg.test_images_per_identity])
        train_indices.extend(order[cfg.test_images_per_identity:])
    return Dataset(cfg, records, sorted(train_indices), sorted(test_indices))


# ---------------------------------------------------------------------------
# on-disk format: the numerics.save_arrays container


def save_dataset(dataset: Dataset, path) -> None:
    """Write ``manifest.json`` and ``tensors.bin`` into directory ``path``
    with :func:`numerics.save_arrays`.

    The manifest holds the config, each record's identity, attributes and
    caption, and the splits; tensors.bin holds one ``images`` array of shape
    (records, rows*cols, patch_pixels).
    """
    cfg = dataset.config
    manifest = {
        "format_version": FORMAT_VERSION,
        **dataclasses.asdict(cfg),
        "records": [{"identity": r.identity, "attributes": r.attributes,
                     "caption": r.caption} for r in dataset.records],
        "train_indices": list(dataset.train_indices),
        "test_indices": list(dataset.test_indices),
    }
    shape = (len(dataset.records), cfg.patch_rows * cfg.patch_cols, cfg.patch_pixels)
    images = np.reshape([r.image for r in dataset.records], shape)
    save_arrays(path, _MAGIC, manifest, {"images": images})


def load_dataset(path) -> Dataset:
    """Read a directory written by :func:`save_dataset`. A malformed file
    raises FormatError naming the key, record, tensor or split index at
    fault."""
    manifest, arrays = load_arrays(path, _MAGIC, FORMAT_VERSION, FormatError)
    missing = [k for k in _CONFIG_KEYS + ("records", "train_indices", "test_indices")
               if k not in manifest]
    if missing:
        raise FormatError(f"dataset manifest lacks {missing}")
    for key in ("records", "train_indices", "test_indices"):
        if not isinstance(manifest[key], list):
            raise FormatError(f"dataset manifest entry {key!r} is not a list")
    _check_config(manifest, FormatError, "dataset manifest entry")
    cfg = DataConfig(**{k: manifest[k] for k in _CONFIG_KEYS})
    for i, meta in enumerate(manifest["records"]):
        if not (isinstance(meta, dict) and type(meta.get("identity")) is int
                and isinstance(meta.get("attributes"), dict)
                and isinstance(meta.get("caption"), str)):
            raise FormatError(f"manifest record {i} needs an integer identity, "
                              f"an attributes object and a caption string")
        attributes = meta["attributes"]
        odd = sorted(set(attributes) ^ set(ATTRIBUTE_SCHEMA))
        if odd:
            kind = "an unknown" if odd[0] in attributes else "no"
            raise FormatError(f"manifest record {i} has {kind} attribute {odd[0]!r}")
        for key, allowed in ATTRIBUTE_SCHEMA.items():
            if attributes[key] not in allowed:
                raise FormatError(f"manifest record {i} attribute {key!r} is "
                                  f"{attributes[key]!r}, not one of {allowed}")
    shape = (len(manifest["records"]), cfg.patch_rows * cfg.patch_cols, cfg.patch_pixels)
    if list(arrays) != ["images"] or arrays["images"].shape != shape:
        found = {name: a.shape for name, a in arrays.items()}
        raise FormatError(f"tensors.bin holds {found}, not one 'images' tensor "
                          f"of shape {shape}")
    records = [PersonRecord(meta["identity"], dict(meta["attributes"]), image,
                            meta["caption"])
               for meta, image in zip(manifest["records"], arrays["images"])]
    split_of: dict[int, str] = {}
    for split in ("train_indices", "test_indices"):
        for index in manifest[split]:
            if type(index) is not int or not 0 <= index < len(records):
                raise FormatError(f"{split} holds index {index!r}, outside the "
                                  f"{len(records)} records")
            if index in split_of:
                raise FormatError(f"record {index} is listed in {split_of[index]} "
                                  f"and again in {split}")
            split_of[index] = split
    return Dataset(cfg, records, list(manifest["train_indices"]),
                   list(manifest["test_indices"]))


# ---------------------------------------------------------------------------
# batching


@dataclasses.dataclass
class Batch:
    images: list           # (rows*cols, patch_pixels) arrays
    token_ids: list        # caption token ids, per item
    identities: list
    masked_phrases: list   # per item: list of MaskedPhrase, one per caption phrase


def make_batches(records, batch_size: int, pipeline: TextPipeline,
                 rng: Rng) -> list[Batch]:
    """Identity-disjoint batches covering ``records`` exactly once."""
    identities = sorted({r.identity for r in records})
    if batch_size > len(identities):
        raise ValueError(f"batch_size {batch_size} exceeds the "
                         f"{len(identities)} identities available")
    by_identity: dict[int, list[int]] = {i: [] for i in identities}
    for idx, rec in enumerate(records):
        by_identity[rec.identity].append(idx)
    for i in identities:
        by_identity[i] = rng.shuffled(by_identity[i])
    priority = {ident: pos for pos, ident in enumerate(rng.shuffled(identities))}

    batches = []
    remaining = {i: list(v) for i, v in by_identity.items()}
    while any(remaining.values()):
        avail = [i for i in identities if remaining[i]]
        avail.sort(key=lambda i: (-len(remaining[i]), priority[i]))
        chosen = avail[:batch_size]
        picked = [remaining[i].pop() for i in chosen]
        batch_records = [records[j] for j in picked]
        batches.append(Batch(
            images=[r.image for r in batch_records],
            token_ids=[pipeline.encode(r.caption) for r in batch_records],
            identities=[r.identity for r in batch_records],
            masked_phrases=[[mask_phrase(ph, rng) for ph in pipeline.phrases(r.caption)]
                            for r in batch_records],
        ))
    return batches
