import dataclasses
import json

import numpy as np
import pytest

from phrasealign import data as dt
from phrasealign.numerics import Rng
from phrasealign.textproc import MASK_ID, TextPipeline


@pytest.fixture(scope="module")
def dataset():
    return dt.generate_dataset(dt.DataConfig(), Rng(0))


@pytest.fixture(scope="module")
def pipeline():
    return TextPipeline()


def test_generate_counts(dataset):
    assert len(dataset.records) == 32
    tuples = {tuple(sorted(r.attributes.items())) for r in dataset.records}
    assert len(tuples) == 8


def test_same_identity_images_differ_only_in_noise(dataset):
    recs = [r for r in dataset.records if r.identity == 0]
    a, b = recs[0].image.ravel(), recs[1].image.ravel()
    cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
    assert cos > 0.99


def test_every_caption_has_two_phrases(dataset, pipeline):
    for rec in dataset.records:
        assert len(pipeline.phrases(rec.caption)) >= 2


def test_caption_words_match_rendered_colors(dataset):
    # decode the mean patch color of each band and match it to the attribute
    cfg = dataset.config
    for rec in dataset.records:
        for slot in ("top", "bottom", "accessory"):
            idx = sorted(dt.region_patch_indices(slot, cfg.patch_rows, cfg.patch_cols))
            rows = rec.image[[i - 1 for i in idx]]
            mean_rgb = rows.reshape(len(idx), -1, 3).mean(axis=(0, 1))
            named = rec.attributes[f"{slot}_color"]
            best = min(dt.COLOR_RGB, key=lambda c: np.abs(
                np.asarray(dt.COLOR_RGB[c]) - mean_rgb).sum())
            assert best == named


def test_caption_mentions_top_and_bottom(dataset):
    for rec in dataset.records:
        assert rec.attributes["top_color"] in rec.caption
        assert rec.attributes["top_type"] in rec.caption
        assert rec.attributes["bottom_color"] in rec.caption


def test_split_covers_each_identity(dataset):
    train_ids = {dataset.records[i].identity for i in dataset.train_indices}
    test_ids = {dataset.records[i].identity for i in dataset.test_indices}
    assert train_ids == test_ids == set(range(8))
    assert sorted(dataset.train_indices + dataset.test_indices) == list(range(32))


def test_generation_error_when_space_too_small():
    cfg = dt.DataConfig(n_identities=2000)
    with pytest.raises(dt.GenerationError):
        dt.generate_dataset(cfg, Rng(0))


def test_region_layout_default_grid():
    bounds = dt.region_row_bounds(8)
    assert bounds == {"accessory": (0, 2), "top": (2, 5), "bottom": (5, 8)}
    top = dt.region_patch_indices("top", 8, 8)
    assert min(top) == 17 and max(top) == 40 and len(top) == 24


@pytest.mark.parametrize("rows, slot", [(1, "top"), (1, "bottom"), (2, "bottom")])
def test_region_outside_a_small_grid_raises(rows, slot):
    # a 1-row grid has no top or bottom band and a 2-row grid no bottom
    # band: the band's rows fall past the grid or span none
    with pytest.raises(ValueError, match=f"{rows} patch rows.*'{slot}'"):
        dt.region_patch_indices(slot, rows, 2)


def test_slot_of_phrase(pipeline):
    (p1, p2, p3) = pipeline.phrases("a red shirt and blue pants and a green hat")
    assert dt.slot_of_phrase(p1) == "top"
    assert dt.slot_of_phrase(p2) == "bottom"
    assert dt.slot_of_phrase(p3) == "accessory"
    (person,) = pipeline.phrases("the man")
    assert dt.slot_of_phrase(person) is None


# ---------------------------------------------------------------------------
# file round trip


def datasets_equal(a: dt.Dataset, b: dt.Dataset) -> bool:
    if dataclasses.asdict(a.config) != dataclasses.asdict(b.config):
        return False
    if a.train_indices != b.train_indices or a.test_indices != b.test_indices:
        return False
    if len(a.records) != len(b.records):
        return False
    for ra, rb in zip(a.records, b.records):
        if (ra.identity != rb.identity or ra.attributes != rb.attributes
                or ra.caption != rb.caption
                or not np.array_equal(ra.image, rb.image)):
            return False
    return True


def test_round_trip_bitwise(dataset, tmp_path):
    dt.save_dataset(dataset, tmp_path / "ds")
    loaded = dt.load_dataset(tmp_path / "ds")
    assert datasets_equal(dataset, loaded)
    # byte-stable: saving the loaded dataset reproduces identical files
    dt.save_dataset(loaded, tmp_path / "ds2")
    for name in ("manifest.json", "tensors.bin"):
        assert (tmp_path / "ds" / name).read_bytes() == \
               (tmp_path / "ds2" / name).read_bytes()


# a small corpus, and overrides of it that generation accepts or rejects
SMALL = dict(n_identities=2, images_per_identity=2, patch_rows=2, patch_cols=2,
             patch_pixels=6)
BAD_CONFIGS = [("noise_sigma", -0.5), ("noise_sigma", float("nan")), ("patch_rows", 0),
               ("patch_pixels", 47), ("patch_pixels", 0), ("n_identities", 2.0),
               ("images_per_identity", True)]


@pytest.mark.parametrize("over", [{}, {"noise_sigma": 0}, {"patch_pixels": 3},
                                  {"test_images_per_identity": 2, "images_per_identity": 3}]
                         + [{field: value} for field, value in BAD_CONFIGS],
                         ids=repr)
def test_every_generated_dataset_loads(tmp_path, over):
    try:
        generated = dt.generate_dataset(dt.DataConfig(**{**SMALL, **over}), Rng(0))
    except dt.GenerationError:
        return
    dt.save_dataset(generated, tmp_path / "ds")
    assert datasets_equal(generated, dt.load_dataset(tmp_path / "ds"))


@pytest.mark.parametrize("field, value", BAD_CONFIGS)
def test_generation_rejects_a_config_no_file_may_hold(field, value):
    with pytest.raises(dt.GenerationError, match=f"'{field}' is {value!r}, not"):
        dt.generate_dataset(dt.DataConfig(**{**SMALL, field: value}), Rng(0))


def test_corrupted_magic_rejected(dataset, tmp_path):
    dt.save_dataset(dataset, tmp_path / "ds")
    blob = bytearray((tmp_path / "ds" / "tensors.bin").read_bytes())
    blob[:4] = b"XXXX"
    (tmp_path / "ds" / "tensors.bin").write_bytes(bytes(blob))
    with pytest.raises(dt.FormatError, match="magic"):
        dt.load_dataset(tmp_path / "ds")


def test_truncated_blob_rejected(dataset, tmp_path):
    dt.save_dataset(dataset, tmp_path / "ds")
    blob = (tmp_path / "ds" / "tensors.bin").read_bytes()
    (tmp_path / "ds" / "tensors.bin").write_bytes(blob[:len(blob) // 2])
    with pytest.raises(dt.FormatError, match="truncated"):
        dt.load_dataset(tmp_path / "ds")


@pytest.mark.parametrize("version", [1, 99])
def test_version_mismatch_rejected(dataset, tmp_path, version):
    dt.save_dataset(dataset, tmp_path / "ds")
    manifest = (tmp_path / "ds" / "manifest.json")
    manifest.write_text(manifest.read_text().replace(
        f'"format_version": {dt.FORMAT_VERSION}', f'"format_version": {version}'))
    with pytest.raises(dt.FormatError, match="version"):
        dt.load_dataset(tmp_path / "ds")


def _drop_noise_sigma(manifest, blob):
    del manifest["noise_sigma"]


def _caption_not_string(manifest, blob):
    manifest["records"][0]["caption"] = 5


def _nan_pixel(manifest, blob):
    # the first pixel follows the 8 magic bytes
    blob[8:16] = np.float64(np.nan).tobytes()


def _raw_file(name, content):
    # written after the harness re-serializes the manifest; None deletes
    def corrupt(manifest, blob):
        return {name: content}
    return corrupt


def _tensor_entry(key, value):
    def corrupt(manifest, blob):
        manifest["tensors"][0][key] = value
    return corrupt


def _repeated_entry(manifest, blob):
    manifest["tensors"].append(dict(manifest["tensors"][0]))


def _drop_record(manifest, blob):
    del manifest["records"][-1]


def _overlapping_splits(manifest, blob):
    manifest["test_indices"][0] = manifest["train_indices"][0]


def _index_out_of_range(manifest, blob):
    manifest["train_indices"][0] = 999


def _config_value(key, value):
    def corrupt(manifest, blob):
        manifest[key] = value
    return corrupt


def _attributes_not_object(manifest, blob):
    manifest["records"][3]["attributes"] = ["red", "shirt"]


def _attribute(key, value):
    def corrupt(manifest, blob):
        attributes = manifest["records"][2]["attributes"]
        if value is None:
            del attributes[key]
        else:
            attributes[key] = value
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_drop_noise_sigma, "noise_sigma"),
    (_caption_not_string, "record 0 "),
    (_overlapping_splits, "record .* train_indices and again in test_indices"),
    (_index_out_of_range, "999"),
    (_config_value("patch_rows", "8"), "'patch_rows'"),
    (_config_value("patch_rows", -8), "'patch_rows'"),
    (_config_value("noise_sigma", "0.05"), "'noise_sigma'"),
    (_config_value("n_identities", 8.0), "'n_identities'"),
    (_attributes_not_object, "record 3 "),
    (_attribute("nonsense", [1]), "record 2 has an unknown attribute 'nonsense'"),
    (_attribute("accessory_color", None), "record 2 has no attribute 'accessory_color'"),
    (_attribute("top_color", 5), "record 2 attribute 'top_color' is 5"),
    (_raw_file("tensors.bin", None), "tensors.bin"),
    (_raw_file("manifest.json", b'{"format_version": 2, "\xff": 0}'), "utf-8"),
    (_nan_pixel, "'images' holds NaN"),
    (_tensor_entry("name", ["images"]), r"entry 0 has name \['images'\]"),
    (_repeated_entry, "entry 1 repeats tensor name 'images'"),
    (_tensor_entry("offset", "8"), "'images' starts at offset '8'"),
    (_tensor_entry("shape", [True, 2048, 48]), r"'images'.*shape \[True"),
    (_drop_record, r"'images' tensor of shape \(31, 64, 48\)"),
], ids=["missing config key", "caption not a string", "splits overlap",
        "index out of range", "string patch_rows", "negative patch_rows",
        "string noise_sigma", "float n_identities", "attributes not an object",
        "unknown attribute", "missing attribute", "attribute outside vocabulary",
        "missing blob", "manifest not utf-8", "nan pixel", "tensor name not a string",
        "repeated tensor name", "string offset", "bool in shape",
        "images do not match records"])
def test_malformed_dataset_rejected(dataset, tmp_path, corrupt, message):
    dt.save_dataset(dataset, tmp_path / "ds")
    manifest_path = tmp_path / "ds" / "manifest.json"
    blob_path = tmp_path / "ds" / "tensors.bin"
    manifest = json.loads(manifest_path.read_text())
    blob = bytearray(blob_path.read_bytes())
    raw = corrupt(manifest, blob) or {}
    manifest_path.write_text(json.dumps(manifest))
    blob_path.write_bytes(bytes(blob))
    for name, content in raw.items():
        if content is None:
            (tmp_path / "ds" / name).unlink()
        else:
            (tmp_path / "ds" / name).write_bytes(content)
    with pytest.raises(dt.FormatError, match=message):
        dt.load_dataset(tmp_path / "ds")


def test_empty_dataset_round_trips(tmp_path):
    empty = dt.Dataset(dt.DataConfig(), [], [], [])
    dt.save_dataset(empty, tmp_path / "ds")
    assert datasets_equal(empty, dt.load_dataset(tmp_path / "ds"))


# ---------------------------------------------------------------------------
# batching


def test_batches_identity_disjoint(dataset, pipeline):
    batches = dt.make_batches(dataset.train_records(), 8, pipeline, Rng(1))
    for b in batches:
        assert len(set(b.identities)) == len(b.identities)


def test_batches_partition_epoch(dataset, pipeline):
    records = dataset.train_records()
    batches = dt.make_batches(records, 4, pipeline, Rng(1))
    # a batch holds its records' own image arrays
    covered = sorted(id(image) for b in batches for image in b.images)
    assert covered == sorted(id(r.image) for r in records)


def test_batches_deterministic(dataset, pipeline):
    a = dt.make_batches(dataset.train_records(), 8, pipeline, Rng(9))
    b = dt.make_batches(dataset.train_records(), 8, pipeline, Rng(9))
    assert [list(map(id, x.images)) for x in a] == [list(map(id, x.images)) for x in b]
    assert [x.masked_phrases for x in a] == [x.masked_phrases for x in b]


def test_batch_size_exceeding_identities_rejected(dataset, pipeline):
    with pytest.raises(ValueError, match="batch_size"):
        dt.make_batches(dataset.train_records(), 9, pipeline, Rng(0))


def test_batches_carry_masked_phrases(dataset, pipeline):
    records = dataset.train_records()
    record_of = {id(r.image): r for r in records}
    batches = dt.make_batches(records, 8, pipeline, Rng(2))
    for b in batches:
        assert len(b.masked_phrases) == len(b.images)
        for image, masked_phrases in zip(b.images, b.masked_phrases):
            # each item's masked phrases are its caption's phrases, in order,
            # each with one token masked
            phrases = pipeline.phrases(record_of[id(image)].caption)
            assert len(masked_phrases) == len(phrases) >= 2
            for phrase, masked in zip(phrases, masked_phrases):
                ids, pos = masked.token_ids, masked.mask_index
                assert len(ids) == len(phrase.token_ids)
                assert ids[:pos] == phrase.token_ids[:pos]
                assert ids[pos + 1:] == phrase.token_ids[pos + 1:]
                assert ids[pos] == MASK_ID
                assert masked.target_id == phrase.token_ids[pos]
