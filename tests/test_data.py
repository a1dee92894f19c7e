import json

import numpy as np
import pytest

from phrasealign import data as dt
from phrasealign.numerics import Rng
from phrasealign.textproc import TextPipeline


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


def test_slot_of_phrase(pipeline):
    (p1, p2, p3) = pipeline.phrases("a red shirt and blue pants and a green hat")
    assert dt.slot_of_phrase(p1) == "top"
    assert dt.slot_of_phrase(p2) == "bottom"
    assert dt.slot_of_phrase(p3) == "accessory"
    (person,) = pipeline.phrases("the man")
    assert dt.slot_of_phrase(person) is None


# ---------------------------------------------------------------------------
# file round trip


def test_round_trip_bitwise(dataset, tmp_path):
    dt.save_dataset(dataset, tmp_path / "ds")
    loaded = dt.load_dataset(tmp_path / "ds")
    assert dt.datasets_equal(dataset, loaded)
    # byte-stable: saving the loaded dataset reproduces identical files
    dt.save_dataset(loaded, tmp_path / "ds2")
    for name in ("manifest.json", "records.bin"):
        assert (tmp_path / "ds" / name).read_bytes() == \
               (tmp_path / "ds2" / name).read_bytes()


def test_corrupted_magic_rejected(dataset, tmp_path):
    dt.save_dataset(dataset, tmp_path / "ds")
    blob = bytearray((tmp_path / "ds" / "records.bin").read_bytes())
    blob[:4] = b"XXXX"
    (tmp_path / "ds" / "records.bin").write_bytes(bytes(blob))
    with pytest.raises(dt.FormatError, match="magic"):
        dt.load_dataset(tmp_path / "ds")


def test_truncated_blob_rejected(dataset, tmp_path):
    dt.save_dataset(dataset, tmp_path / "ds")
    blob = (tmp_path / "ds" / "records.bin").read_bytes()
    (tmp_path / "ds" / "records.bin").write_bytes(blob[:len(blob) // 2])
    with pytest.raises(dt.FormatError, match="offset"):
        dt.load_dataset(tmp_path / "ds")


def test_version_mismatch_rejected(dataset, tmp_path):
    dt.save_dataset(dataset, tmp_path / "ds")
    manifest = (tmp_path / "ds" / "manifest.json")
    manifest.write_text(manifest.read_text().replace(
        '"format_version": 1', '"format_version": 99'))
    with pytest.raises(dt.FormatError, match="version"):
        dt.load_dataset(tmp_path / "ds")


def _drop_noise_sigma(manifest, blob):
    del manifest["noise_sigma"]


def _bad_utf8_caption(manifest, blob):
    # record 0's caption starts after the magic, its image and its length
    cfg = dt.DataConfig()
    blob[8 + 8 * cfg.patch_rows * cfg.patch_cols * cfg.patch_pixels + 4] = 0xFF


def _overlapping_splits(manifest, blob):
    manifest["test_indices"][0] = manifest["train_indices"][0]


def _index_out_of_range(manifest, blob):
    manifest["train_indices"][0] = 999


@pytest.mark.parametrize("corrupt, message", [
    (_drop_noise_sigma, "noise_sigma"),
    (_bad_utf8_caption, "record 0 .*UTF-8"),
    (_overlapping_splits, "record .* train_indices and again in test_indices"),
    (_index_out_of_range, "999"),
], ids=["missing config key", "caption not utf-8", "splits overlap",
        "index out of range"])
def test_malformed_dataset_rejected(dataset, tmp_path, corrupt, message):
    dt.save_dataset(dataset, tmp_path / "ds")
    manifest_path = tmp_path / "ds" / "manifest.json"
    blob_path = tmp_path / "ds" / "records.bin"
    manifest = json.loads(manifest_path.read_text())
    blob = bytearray(blob_path.read_bytes())
    corrupt(manifest, blob)
    manifest_path.write_text(json.dumps(manifest))
    blob_path.write_bytes(bytes(blob))
    with pytest.raises(dt.FormatError, match=message):
        dt.load_dataset(tmp_path / "ds")


def test_empty_dataset_round_trips(tmp_path):
    empty = dt.Dataset(dt.DataConfig(), [], [], [])
    dt.save_dataset(empty, tmp_path / "ds")
    assert dt.datasets_equal(empty, dt.load_dataset(tmp_path / "ds"))


# ---------------------------------------------------------------------------
# batching


def test_batches_identity_disjoint(dataset, pipeline):
    batches = dt.make_batches(dataset.train_records(), 8, pipeline, Rng(1))
    for b in batches:
        assert len(set(b.identities)) == len(b.identities)


def test_batches_partition_epoch(dataset, pipeline):
    records = dataset.train_records()
    batches = dt.make_batches(records, 4, pipeline, Rng(1))
    covered = sorted(i for b in batches for i in b.indices)
    assert covered == list(range(len(records)))


def test_batches_deterministic(dataset, pipeline):
    a = dt.make_batches(dataset.train_records(), 8, pipeline, Rng(9))
    b = dt.make_batches(dataset.train_records(), 8, pipeline, Rng(9))
    assert [x.indices for x in a] == [x.indices for x in b]
    assert [x.phrase_pairs for x in a] == [x.phrase_pairs for x in b]


def test_batch_size_exceeding_identities_rejected(dataset, pipeline):
    with pytest.raises(ValueError, match="batch_size"):
        dt.make_batches(dataset.train_records(), 9, pipeline, Rng(0))


def test_batches_carry_masked_phrases(dataset, pipeline):
    batches = dt.make_batches(dataset.train_records(), 8, pipeline, Rng(2))
    for b in batches:
        for pairs in b.phrase_pairs:
            assert len(pairs) >= 2
            for phrase, masked in pairs:
                assert len(masked.token_ids) == len(phrase.token_ids)
