"""Text augmentation on ordered token sequences: the reference that
`sgim.augment.augment_bags` must reproduce.

`TokenSeq` holds token ids into a `Vocabulary`, and `augment_text` inserts a
synonym, permutes the order and inserts a random word, each stage with its
own probability, building the augmented sequence token by token.
`augment_bags(rows, rng, prob)` must equal `bag_matrix` of
`augment_text(..., SYNONYMS, rng, prob, prob, prob)` applied row by row,
byte for byte, and leave the rng in the same state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sgim.augment import SYNONYMS, WORDS
from sgim.errors import UsageError


@dataclass(frozen=True)
class Vocabulary:
    """Fixed word list; token ids are indices into ``words``."""

    words: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(self.words)})

    def __len__(self):
        return len(self.words)

    def id_of(self, word: str) -> int:
        return self._index[word]

    def __contains__(self, word: str) -> bool:
        return word in self._index


@dataclass(frozen=True)
class TokenSeq:
    tokens: tuple[int, ...]
    vocab: Vocabulary

    def __post_init__(self):
        if any(t < 0 or t >= len(self.vocab) for t in self.tokens):
            raise UsageError("token id outside vocabulary")

    def words(self) -> list[str]:
        return [self.vocab.words[t] for t in self.tokens]


def default_vocabulary() -> Vocabulary:
    return Vocabulary(WORDS)


def bag_matrix(token_rows, vocab_size: int) -> np.ndarray:
    """Token count vectors, one row per sequence of token ids; rows may
    differ in length."""
    return np.stack([np.bincount(np.asarray(row, dtype=np.intp),
                                 minlength=vocab_size)
                     for row in token_rows]).astype(np.float64)


def augment_text(seq: TokenSeq, synonym_table, rng: np.random.Generator,
                 p_synonym: float = 0.5, p_permute: float = 0.5,
                 p_insert: float = 0.5) -> TokenSeq:
    """Apply synonym insertion, then permutation, then random insertion.

    Each stage fires independently with its probability and always consumes
    the same rng draws for the stage decision, so the stream layout does not
    depend on the probability values. The original tokens are never removed.
    """
    if not seq.tokens:
        raise UsageError("cannot augment an empty token sequence")
    vocab = seq.vocab
    tokens = list(seq.tokens)

    if rng.random() < p_synonym:
        candidates = [i for i, t in enumerate(tokens)
                      if synonym_table.get(vocab.words[t])]
        if candidates:
            which = candidates[int(rng.integers(0, len(candidates)))]
            syns = [s for s in synonym_table[vocab.words[tokens[which]]]
                    if s in vocab]
            if syns:
                syn_id = vocab.id_of(syns[int(rng.integers(0, len(syns)))])
                pos = int(rng.integers(0, len(tokens) + 1))
                tokens.insert(pos, syn_id)

    if rng.random() < p_permute:
        order = rng.permutation(len(tokens))
        tokens = [tokens[i] for i in order]

    if rng.random() < p_insert:
        extra = int(rng.integers(0, len(vocab)))
        pos = int(rng.integers(0, len(tokens) + 1))
        tokens.insert(pos, extra)

    return TokenSeq(tuple(tokens), vocab)


def reference_augmented_bags(token_rows, rng: np.random.Generator,
                             prob: float) -> np.ndarray:
    """The training loops' text augmentation as it was built from token
    sequences: one ``augment_text`` per row, then ``bag_matrix``."""
    vocab = default_vocabulary()
    return bag_matrix([augment_text(TokenSeq(tuple(row.tolist()), vocab),
                                    SYNONYMS, rng, p_synonym=prob,
                                    p_permute=prob, p_insert=prob).tokens
                       for row in np.asarray(token_rows)], len(vocab))
