import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgim import augment
from sgim.augment import augment_bags, bag_matrix, spec_augment
from sgim.errors import ParameterError, UsageError

from draw_reference import spec_augment_row
from text_reference import (TokenSeq, Vocabulary, augment_text,
                            reference_augmented_bags)


def test_spec_augment_identity_at_zero_ratios():
    rng = np.random.default_rng(0)
    mels = np.random.default_rng(1).standard_normal((3, 20, 10))
    state = rng.bit_generator.state
    out = spec_augment(mels, 0.0, 0.0, rng)
    assert np.array_equal(out, mels)
    assert out is not mels
    assert rng.bit_generator.state == state   # zero-width bands draw nothing


def test_spec_augment_band_sizes():
    # floor(0.15*20) = 3 rows, floor(0.3*10) = 3 columns, overlap counted once
    rng = np.random.default_rng(7)
    mels = np.ones((5, 20, 10))
    out = spec_augment(mels, 0.15, 0.3, rng)
    assert out.shape == mels.shape
    assert np.array_equal(mels, np.ones((5, 20, 10)))  # input untouched
    for grid in out:
        zero_rows = int(np.sum(np.all(grid == 0.0, axis=1)))
        zero_cols = int(np.sum(np.all(grid == 0.0, axis=0)))
        assert zero_rows == 3
        assert zero_cols == 3
        expected_zeros = 3 * 10 + 3 * 20 - 3 * 3
        assert int(np.sum(grid == 0.0)) == expected_zeros


def test_spec_augment_rejects_ratio_one():
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        spec_augment(np.ones((2, 4, 4)), 1.0, 0.0, rng)
    with pytest.raises(ParameterError):
        spec_augment(np.ones((2, 4, 4)), 0.0, 1.5, rng)
    with pytest.raises(ParameterError):
        spec_augment(np.ones((4, 4)), 0.1, 0.1, rng)   # one grid, not a stack


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1), st.floats(0, 0.99), st.floats(0, 0.99))
def test_spec_augment_pure_under_seed(seed, fr, tr):
    mels = np.random.default_rng(5).standard_normal((3, 12, 8))
    a = spec_augment(mels, fr, tr, np.random.default_rng(seed))
    b = spec_augment(mels, fr, tr, np.random.default_rng(seed))
    assert np.array_equal(a, b)
    assert a.shape == mels.shape


def test_spec_augment_matches_per_row_draws():
    """One call per batch gives the masks and leaves the rng state of one
    scalar draw per band, row by row, at random shapes, counts (odd ones
    included) and ratios (zero included)."""
    cases = np.random.default_rng(2024)
    for _ in range(300):
        n = int(cases.integers(0, 12))
        f_bins, t_frames = (int(d) for d in cases.integers(1, 25, size=2))
        fr, tr = (0.0 if cases.random() < 0.2 else float(cases.random() * 0.99)
                  for _ in range(2))
        mels = cases.standard_normal((n, f_bins, t_frames))
        seed = int(cases.integers(0, 2**63))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = spec_augment(mels, fr, tr, rng)
        want = np.array([spec_augment_row(m, fr, tr, ref_rng) for m in mels])
        assert got.shape == mels.shape
        assert got.tobytes() == want.reshape(mels.shape).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _tiny_vocab():
    return Vocabulary(("wave", "surf", "rain", "a", "b", "c"))


def test_augment_text_all_off_is_identity():
    v = _tiny_vocab()
    seq = TokenSeq((0, 2), v)
    out = augment_text(seq, {"wave": ["surf"]}, np.random.default_rng(0),
                       p_synonym=0.0, p_permute=0.0, p_insert=0.0)
    assert out.tokens == seq.tokens


def test_augment_text_forced_synonym():
    v = _tiny_vocab()
    seq = TokenSeq((v.id_of("wave"),), v)
    out = augment_text(seq, {"wave": ["surf"]}, np.random.default_rng(3),
                       p_synonym=1.0, p_permute=0.0, p_insert=0.0)
    words = out.words()
    assert "wave" in words and "surf" in words


def test_augment_text_forced_permutation_pinned():
    # pinned from one seeded run: default_rng(123) permutes [a,b,c] -> [b,a,c]
    v = _tiny_vocab()
    ids = (v.id_of("a"), v.id_of("b"), v.id_of("c"))
    out = augment_text(TokenSeq(ids, v), {}, np.random.default_rng(123),
                       p_synonym=0.0, p_permute=1.0, p_insert=0.0)
    assert out.words() == ["b", "a", "c"]
    again = augment_text(TokenSeq(ids, v), {}, np.random.default_rng(123),
                         p_synonym=0.0, p_permute=1.0, p_insert=0.0)
    assert out.tokens == again.tokens


def test_augment_text_empty_rejected():
    with pytest.raises(UsageError):
        augment_text(TokenSeq((), _tiny_vocab()), {}, np.random.default_rng(0))


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.integers(0, 5), min_size=1, max_size=6))
def test_augment_text_preserves_original_multiset(seed, ids):
    v = _tiny_vocab()
    seq = TokenSeq(tuple(ids), v)
    out = augment_text(seq, augment.SYNONYMS, np.random.default_rng(seed))
    for tok in set(ids):
        assert list(out.tokens).count(tok) >= ids.count(tok)


def test_default_vocabulary_covers_labels_and_synonyms():
    words = augment.WORDS
    for pair in augment.CLASS_LABEL_WORDS:
        for w in pair:
            assert w in words
    for syns in augment.SYNONYMS.values():
        for s in syns:
            assert s in words
    assert len(set(words)) == len(words) == augment.VOCAB_SIZE
    assert all(words[augment.TOKEN_ID[w]] == w for w in words)
    for word, syns in augment.SYNONYMS.items():
        assert augment.SYNONYM_IDS[augment.TOKEN_ID[word]] == tuple(
            augment.TOKEN_ID[s] for s in syns)


def test_bag_matrix_counts_and_rejects_unknown_ids():
    bags = bag_matrix(np.array([[0, 3, 0], [5, 5, 5]], dtype=np.int32))
    assert bags.dtype == np.float64 and bags.shape == (2, augment.VOCAB_SIZE)
    assert bags[0, 0] == 2.0 and bags[0, 3] == 1.0 and bags[0].sum() == 3.0
    assert bags[1, 5] == 3.0 and bags[1].sum() == 3.0
    for bad in (-1, augment.VOCAB_SIZE):
        with pytest.raises(UsageError):
            bag_matrix(np.array([[0, bad]]))


@pytest.mark.parametrize("prob", [0.0, 0.5, 1.0])
def test_augment_bags_matches_token_sequence_reference(prob, dataset):
    # every text row of the seed-7 dataset, three seeded passes: the bags
    # must equal the reference's bytewise and the rng must end in the same
    # state
    for seed in range(3):
        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        bags = augment_bags(dataset.text, rng, prob)
        ref = reference_augmented_bags(dataset.text, ref_rng, prob)
        assert bags.dtype == np.float64
        assert bags.tobytes() == ref.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.floats(0, 1),
       st.lists(st.lists(st.integers(0, augment.VOCAB_SIZE - 1), min_size=3,
                         max_size=3), min_size=1, max_size=6))
def test_augment_bags_matches_reference_on_any_rows(seed, prob, rows):
    rows = np.array(rows, dtype=np.int32)
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    bags = augment_bags(rows, rng, prob)
    assert bags.tobytes() == reference_augmented_bags(rows, ref_rng,
                                                      prob).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 7, 11, 80861023])
def test_one_element_pool_draw_is_zero_and_keeps_rng_state(seed):
    # augment_bags skips the draw from a one-element pool (one synonym
    # candidate, one synonym) on the strength of this: the draw is 0 and
    # the generator does not move
    rng = np.random.default_rng(seed)
    rng.random()
    before = rng.bit_generator.state
    assert rng.integers(0, 1) == 0
    assert rng.bit_generator.state == before


def test_augment_bags_keeps_original_counts(dataset):
    base = bag_matrix(dataset.text)
    assert np.array_equal(augment_bags(dataset.text,
                                       np.random.default_rng(0), 0.0), base)
    bags = augment_bags(dataset.text, np.random.default_rng(0), 1.0)
    assert np.all(bags >= base)
    # prob 1 always adds the label word's synonym and one random word
    assert np.all(bags.sum(axis=1) == base.sum(axis=1) + 2)


def test_augment_bags_empty_rows_rejected():
    with pytest.raises(UsageError):
        augment_bags(np.zeros((2, 0), dtype=np.int32),
                     np.random.default_rng(0), 0.5)
