import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from phrasealign.numerics import Rng
from phrasealign import textproc as tp

FIXTURE = json.loads(
    (Path(__file__).parent / "fixtures" / "chunker_fixture.json").read_text())


@pytest.fixture(scope="module")
def pipeline():
    return tp.TextPipeline()


# ---------------------------------------------------------------------------
# tokenize


def test_tokenize_splits_punctuation():
    assert tp.tokenize("Black hair.") == ["black", "hair", "."]


def test_tokenize_empty():
    assert tp.tokenize("") == []


def test_tokenize_truncates_to_fifty():
    text = " ".join(f"w{i}" for i in range(60))
    toks = tp.tokenize(text)
    assert len(toks) == 50
    assert toks[0] == "w0" and toks[-1] == "w49"


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
               max_size=80))
def test_tokenize_idempotent_on_rejoined_tokens(text):
    toks = tp.tokenize(text)
    assert tp.tokenize(" ".join(toks)) == toks


# ---------------------------------------------------------------------------
# pos_tag


def test_pos_tag_lexicon(pipeline):
    tags = [t.tag for t in tp.pos_tag(["black", "hair"], pipeline.lexicon)]
    assert tags == ["JJ", "NN"]


def test_pos_tag_closed_class(pipeline):
    tags = [t.tag for t in tp.pos_tag(["the", "man"], pipeline.lexicon)]
    assert tags == ["DT", "NN"]


def test_pos_tag_unknown_defaults_nn(pipeline):
    assert tp.pos_tag(["zxqw"], pipeline.lexicon)[0].tag == "NN"


def test_pos_tag_ing_rule(pipeline):
    assert tp.pos_tag(["jogging"], pipeline.lexicon)[0].tag == "VBG"


def test_pos_tag_punctuation_is_other(pipeline):
    assert tp.pos_tag(["."], pipeline.lexicon)[0].tag == "OTHER"


# ---------------------------------------------------------------------------
# chunker


def phrases_of(pipeline, text):
    return [" ".join(p.words) for p in pipeline.phrases(text)]


@pytest.mark.parametrize("case", FIXTURE, ids=lambda c: c["text"][:32] or "<empty>")
def test_chunker_fixture(pipeline, case):
    assert phrases_of(pipeline, case["text"]) == case["expected_phrases"]


def test_fixture_has_twenty_sentences():
    assert len(FIXTURE) == 20


def test_chunker_spans_sorted_disjoint(pipeline):
    for case in FIXTURE:
        spans = [p.span for p in pipeline.phrases(case["text"])]
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0, "spans overlap or are unsorted"


def test_chunker_heads_are_nominal(pipeline):
    for case in FIXTURE:
        tagged = pipeline.tagged(case["text"])
        for p in pipeline.phrases(case["text"]):
            assert p.words, "empty phrase"
            assert tagged[p.span[1] - 1].tag in ("NN", "NNS")


def test_determiner_kept_in_span_dropped_from_words(pipeline):
    (p,) = pipeline.phrases("a short sleeve dress shirt")
    assert p.span == (0, 5)
    assert p.words == ("short", "sleeve", "dress", "shirt")


# ---------------------------------------------------------------------------
# masking


def test_mask_single_token_phrase(pipeline):
    (p,) = pipeline.phrases("shirt")
    m = tp.mask_phrase(p, Rng(0))
    assert m.mask_index == 0
    assert m.token_ids == (tp.MASK_ID,)
    assert m.target_id == pipeline.vocab.encode(["shirt"])[0]


def test_mask_uniform_over_positions(pipeline):
    (p,) = pipeline.phrases("a short sleeve dress shirt")
    rng = Rng(123)
    counts = [0, 0, 0, 0]
    n = 10_000
    for _ in range(n):
        counts[tp.mask_phrase(p, rng).mask_index] += 1
    for c in counts:
        assert abs(c / n - 0.25) <= 0.02


def test_mask_deterministic(pipeline):
    (p,) = pipeline.phrases("blue knee length dress")
    a = tp.mask_phrase(p, Rng(7))
    b = tp.mask_phrase(p, Rng(7))
    assert a == b


def test_mask_always_exactly_one(pipeline):
    rng = Rng(5)
    for case in FIXTURE:
        for p in pipeline.phrases(case["text"]):
            m = tp.mask_phrase(p, rng)
            assert m.token_ids.count(tp.MASK_ID) == 1
            assert m.target_id != tp.MASK_ID


# ---------------------------------------------------------------------------
# vocabulary


def test_vocab_reserved_ids(pipeline):
    v = pipeline.vocab
    assert v.id_to_token[:4] == list(tp.RESERVED_TOKENS)
    assert v.encode(["[PAD]"]) == [tp.PAD_ID]


def test_vocab_bijection(pipeline):
    v = pipeline.vocab
    assert len(v.id_to_token) == len(v.token_to_id)
    for i, tok in enumerate(v.id_to_token):
        assert v.token_to_id[tok] == i


def test_vocab_unknown_maps_to_unk(pipeline):
    assert pipeline.vocab.encode(["zzzz"]) == [tp.UNK_ID]


def test_tokenizer_never_emits_reserved(pipeline):
    for case in FIXTURE:
        for tok in tp.tokenize(case["text"]):
            assert tok not in tp.RESERVED_TOKENS


def test_lexicon_file_rejects_bad_tag(tmp_path):
    bad = tmp_path / "lex.tsv"
    bad.write_text("word\tXX\n")
    with pytest.raises(ValueError, match="unknown tag"):
        tp.load_lexicon(bad)
