"""Deterministic tokenizer, rule-based POS tagging, noun-phrase chunking,
and phrase masking.

The tagger works over a small shippable lexicon (``word<TAB>tag`` lines)
plus a built-in closed-class table; the chunker is a fixed left-to-right
scan for ``DT? (JJ|VBG)* (NN|NNS)+`` runs. Everything here is pure given an
immutable lexicon, so it is safe to share across threads.
"""

from __future__ import annotations

import dataclasses
import re
from importlib import resources
from typing import Iterable, Sequence

from .numerics import Rng

# reserved vocabulary rows; the tokenizer never emits these for ordinary words
PAD_ID = 0
MASK_ID = 1
CLS_ID = 2
UNK_ID = 3
RESERVED_TOKENS = ("[PAD]", "[MASK]", "[CLS]", "[UNK]")

MAX_TOKENS = 50

TAG_SET = frozenset({"DT", "JJ", "NN", "NNS", "VBG", "VB", "IN", "CC", "PRP", "OTHER"})

# closed-class words are tagged here before any lexicon lookup
CLOSED_CLASS = {
    "the": "DT", "a": "DT", "an": "DT",
    "is": "VB", "are": "VB",
    "and": "CC",
    "in": "IN", "on": "IN", "with": "IN",
    "he": "PRP", "she": "PRP",
}

_TOKEN_RE = re.compile(r"[a-z0-9]+|[^\sa-z0-9]")


def tokenize(text: str) -> list[str]:
    """Lowercase, split punctuation into separate tokens, cap at 50 tokens."""
    return _TOKEN_RE.findall(text.lower())[:MAX_TOKENS]


@dataclasses.dataclass(frozen=True)
class TaggedToken:
    text: str
    tag: str

    def __post_init__(self):
        if self.tag not in TAG_SET:
            raise ValueError(f"unknown tag {self.tag!r} for token {self.text!r}")


def load_lexicon(path) -> dict[str, str]:
    """Read ``word<TAB>tag`` lines; ``#`` starts a comment."""
    lexicon: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'word<TAB>tag'")
            word, tag = parts[0].strip().lower(), parts[1].strip()
            if tag not in TAG_SET:
                raise ValueError(f"{path}:{lineno}: unknown tag {tag!r}")
            lexicon[word] = tag
    return lexicon


def default_lexicon() -> dict[str, str]:
    ref = resources.files("phrasealign.resources").joinpath("lexicon.tsv")
    with resources.as_file(ref) as path:
        return load_lexicon(path)


def pos_tag(tokens: Sequence[str], lexicon: dict[str, str]) -> list[TaggedToken]:
    """Closed-class table first, then lexicon; unknown words default to NN,
    except unknown ``-ing`` forms, which default to VBG."""
    tagged = []
    for tok in tokens:
        if tok in CLOSED_CLASS:
            tag = CLOSED_CLASS[tok]
        elif tok in lexicon:
            tag = lexicon[tok]
        elif not tok[:1].isalnum():
            tag = "OTHER"
        elif tok.endswith("ing") and len(tok) > 4:
            tag = "VBG"
        else:
            tag = "NN"
        tagged.append(TaggedToken(tok, tag))
    return tagged


@dataclasses.dataclass(frozen=True)
class Phrase:
    """A chunked noun phrase: its words (leading determiner dropped) and
    their vocabulary ids."""

    words: tuple[str, ...]
    token_ids: tuple[int, ...]


_MODIFIER_TAGS = {"JJ", "VBG"}
_NOMINAL_TAGS = {"NN", "NNS"}


def chunk_noun_phrases(tagged: Sequence[TaggedToken],
                       vocab: "Vocabulary") -> list[Phrase]:
    """Maximal non-overlapping ``DT? (JJ|VBG)* (NN|NNS)+`` runs, left to right,
    their words encoded by ``vocab``. The determiner is dropped from the
    phrase words.
    """
    phrases: list[Phrase] = []
    i, n = 0, len(tagged)
    while i < n:
        j = i
        if j < n and tagged[j].tag == "DT":
            j += 1
        body = j
        while j < n and tagged[j].tag in _MODIFIER_TAGS:
            j += 1
        if j < n and tagged[j].tag in _NOMINAL_TAGS:
            while j < n and tagged[j].tag in _NOMINAL_TAGS:
                j += 1
            words = tuple(t.text for t in tagged[body:j])
            phrases.append(Phrase(words, tuple(vocab.encode(words))))
            i = j
        else:
            i += 1
    return phrases


@dataclasses.dataclass(frozen=True)
class MaskedPhrase:
    """Phrase token ids with exactly one position replaced by [MASK]."""

    token_ids: tuple[int, ...]
    mask_index: int
    target_id: int

    def __post_init__(self):
        if not 0 <= self.mask_index < len(self.token_ids):
            raise ValueError("mask_index out of range")
        if self.token_ids[self.mask_index] != MASK_ID:
            raise ValueError("masked position does not hold [MASK]")
        if self.token_ids.count(MASK_ID) != 1:
            raise ValueError("exactly one [MASK] required")
        if self.target_id == MASK_ID:
            raise ValueError("target may not be [MASK]")


def mask_phrase(phrase: Phrase, rng: Rng) -> MaskedPhrase:
    """Replace one uniformly chosen phrase token with [MASK]."""
    pos = rng.integer(len(phrase.token_ids))
    ids = list(phrase.token_ids)
    target = ids[pos]
    ids[pos] = MASK_ID
    return MaskedPhrase(tuple(ids), pos, target)


class Vocabulary:
    """Bijective token<->id map with reserved ids 0..3."""

    def __init__(self, tokens: Iterable[str]):
        self.id_to_token: list[str] = list(RESERVED_TOKENS)
        seen = set(self.id_to_token)
        for tok in tokens:
            if tok in seen:
                continue
            seen.add(tok)
            self.id_to_token.append(tok)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    @classmethod
    def from_corpus_words(cls, words: Iterable[str]) -> "Vocabulary":
        return cls(sorted(set(words)))

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self.token_to_id.get(t, UNK_ID) for t in tokens]


class TextPipeline:
    """Tokenize -> tag -> chunk -> encode, over the shipped lexicon and a
    vocabulary of its words plus the two punctuation tokens."""

    def __init__(self):
        self.lexicon = default_lexicon()
        self.vocab = Vocabulary.from_corpus_words(set(self.lexicon) | {".", ","})

    def tagged(self, text: str) -> list[TaggedToken]:
        return pos_tag(tokenize(text), self.lexicon)

    def encode(self, text: str) -> list[int]:
        return self.vocab.encode(tokenize(text))

    def phrases(self, text: str) -> list[Phrase]:
        return chunk_noun_phrases(self.tagged(text), self.vocab)
