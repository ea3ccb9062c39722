import math
import re

import numpy as np
import pytest

from sgim import data
from sgim.augment import VOCAB_SIZE
from sgim.data import (DatasetManifest, generate_dataset, group_rows,
                       load_dataset, sample_minibatch, sample_weak_pairs,
                       save_dataset, split_by_video, weak_candidates)
from sgim.errors import ParameterError, UsageError

from draw_reference import weak_pair


def chi2_survival_even_dof(x: float, dof: int) -> float:
    """P(chi2_dof > x) in closed form, valid for even dof."""
    assert dof % 2 == 0 and dof > 0
    half = x / 2.0
    total = 0.0
    term = 1.0
    for j in range(dof // 2):
        if j > 0:
            term *= half / j
        total += term
    return math.exp(-half) * total


def test_chi2_oracle_sanity():
    # median of chi2_2 is 2 ln 2, survival there is exactly 0.5
    assert abs(chi2_survival_even_dof(2 * math.log(2), 2) - 0.5) < 1e-12
    assert chi2_survival_even_dof(0.0, 4) == 1.0


@pytest.fixture(scope="module")
def manifest():
    return DatasetManifest(seed=11)


def reference_split_by_video(records, manifest):
    """The list-comprehension split that ``split_by_video`` replaced, on
    row indices."""
    v = manifest.videos_per_class
    train = [i for i, r in enumerate(records) if r.video_id % v != v - 1]
    held = [i for i, r in enumerate(records) if r.video_id % v == v - 1]
    return train, held


def reference_weak_pair(records, index, rng):
    """The list-scan picker that ``weak_candidates`` plus
    ``sample_weak_pairs`` replaced, on row indices."""
    record = records[index]
    candidates = [i for i, r in enumerate(records)
                  if r.class_id == record.class_id
                  and r.video_id != record.video_id]
    if not candidates:
        candidates = [i for i, r in enumerate(records)
                      if r.class_id == record.class_id]
    return candidates[int(rng.integers(0, len(candidates)))]


COLUMNS = ("audio", "image", "text", "class_id", "video_id", "nuisance_id",
           "intensity")


def assert_same_columns(a, b):
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


@pytest.fixture(scope="module")
def dataset(manifest):
    return generate_dataset(manifest)


def test_generation_deterministic(manifest, dataset):
    again = generate_dataset(manifest)
    assert len(again) == len(dataset) == manifest.record_count
    assert_same_columns(dataset, again)


def test_row_view_matches_columns(dataset):
    rows = list(dataset)
    assert len(rows) == len(dataset)
    for i in (0, 97, len(dataset) - 1):
        r = dataset[i]
        assert r.audio.tobytes() == dataset.audio[i].tobytes()
        assert r.image.tobytes() == dataset.image[i].tobytes()
        assert r.text.tobytes() == dataset.text[i].tobytes()
        assert (r.class_id, r.video_id, r.nuisance_id, r.intensity) == \
               (dataset.class_id[i], dataset.video_id[i],
                dataset.nuisance_id[i], dataset.intensity[i])
        assert rows[i].video_id == r.video_id


def test_same_video_shares_class(dataset):
    for v in np.unique(dataset.video_id):
        assert len(np.unique(dataset.class_id[dataset.video_id == v])) == 1


def test_intensity_range(dataset):
    assert np.all((0.2 <= dataset.intensity) & (dataset.intensity <= 1.0))


def test_audio_class_separation_margin(dataset):
    flat = dataset.audio.reshape(len(dataset), -1)
    flat = flat / np.linalg.norm(flat, axis=1, keepdims=True)
    sims = flat @ flat.T
    labels = dataset.class_id
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(len(dataset), dtype=bool)
    within = sims[same & off_diag].mean()
    across = sims[~same].mean()
    assert within - across >= 0.2


def test_nuisance_quota_and_heldout_bias(manifest, dataset):
    # biased classes: exactly round(0.8 * 6) = 5 of 6 videos carry the pattern,
    # and the final (held-out) video is always one of them
    for c in manifest.bias_spec:
        in_class = dataset.class_id == c
        vids = dict(zip(dataset.video_id[in_class].tolist(),
                        dataset.nuisance_id[in_class].tolist()))
        flagged = [v for v, n in vids.items() if n >= 0]
        assert len(flagged) == round(0.8 * manifest.videos_per_class)
        last_video = c * manifest.videos_per_class + manifest.videos_per_class - 1
        assert vids[last_video] >= 0
    unbiased = ~np.isin(dataset.class_id, list(manifest.bias_spec))
    assert np.all(dataset.nuisance_id[unbiased] == -1)


def test_split_by_video(manifest, dataset):
    train, held = split_by_video(dataset, manifest)
    assert len(held) == manifest.classes * manifest.records_per_video
    assert len(train) + len(held) == len(dataset)
    assert not set(train.video_id.tolist()) & set(held.video_id.tolist())
    assert set(held.class_id.tolist()) == set(range(manifest.classes))
    ref_train, ref_held = reference_split_by_video(list(dataset), manifest)
    for part, ref in ((train, ref_train), (held, ref_held)):
        assert part.video_id.tolist() == dataset.video_id[ref].tolist()
        assert part.audio.tobytes() == dataset.audio[ref].tobytes()
        assert part.text.tobytes() == dataset.text[ref].tobytes()


def test_group_rows_first_appearance_order():
    keys = np.array([5, 2, 5, 9, 2, 2])
    groups = group_rows(keys)
    assert [g.tolist() for g in groups] == [[0, 2], [1, 4, 5], [3]]


def test_sample_minibatch_basics(dataset):
    rng = np.random.default_rng(5)
    batch = sample_minibatch(dataset, 8, rng, 0.15, 0.3)
    assert batch.audio.shape == (8, 20, 10)
    assert batch.text.shape == (8, 2)
    assert len(set(batch.rows.tolist())) == 8
    with pytest.raises(UsageError):
        sample_minibatch(dataset, 1, rng, 0.15, 0.3)
    with pytest.raises(UsageError):
        sample_minibatch(dataset.take(np.arange(4)), 5, rng, 0.15, 0.3)


def test_sample_minibatch_two_from_two():
    m = DatasetManifest(classes=1, videos_per_class=1, records_per_video=2,
                        bias_spec={}, seed=0)
    ds = generate_dataset(m)
    batch = sample_minibatch(ds, 2, np.random.default_rng(0), 0.15, 0.3)
    assert set(ds.video_id[batch.rows].tolist()) == {0}
    assert len(batch.rows) == 2


def test_sample_minibatch_zero_ratios_identity(dataset):
    batch = sample_minibatch(dataset, 4, np.random.default_rng(1),
                             freq_mask_ratio=0.0, time_mask_ratio=0.0)
    assert np.array_equal(batch.audio, batch.audio_aug)


def test_sample_minibatch_seeded_ids_pinned(dataset):
    batch = sample_minibatch(dataset, 6, np.random.default_rng(77), 0.15, 0.3)
    expected = np.random.default_rng(77).choice(len(dataset), 6, replace=False)
    assert np.array_equal(batch.rows, expected)
    assert np.array_equal(batch.audio, dataset.audio[expected])
    assert np.array_equal(batch.text, dataset.text[expected])


@pytest.mark.parametrize("pool", ["all", "train", "single_video"])
def test_weak_pair_matches_list_scan_reference(pool, manifest, dataset):
    if pool == "all":
        ds = dataset
    elif pool == "train":
        ds = split_by_video(dataset, manifest)[0]
    else:
        ds = generate_dataset(DatasetManifest(
            classes=3, videos_per_class=2, records_per_video=3,
            bias_spec={}, seed=4))
        ds = split_by_video(ds, DatasetManifest(videos_per_class=2))[0]
    records = list(ds)
    candidates = weak_candidates(ds)
    rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
    for _ in range(3):
        got = sample_weak_pairs(candidates, np.arange(len(ds)), rng)
        assert got.tolist() == [reference_weak_pair(records, i, ref_rng)
                                for i in range(len(ds))]


def test_array_bound_draws_match_scalar_draws():
    """``rng.integers(0, highs)`` with an array of bounds gives the values
    of one scalar draw per bound, and leaves the same rng state: the
    property the batched samplers rest on. Bounds span 1 (no draw), the
    32-bit and the 64-bit paths; counts include odd ones."""
    cases = np.random.default_rng(31)
    for _ in range(300):
        top = int(cases.choice([2, 50, 2**31, 2**32, 2**62]))
        highs = cases.integers(1, top, size=int(cases.integers(0, 70)),
                               endpoint=True)
        seed = int(cases.integers(0, 2**63))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = rng.integers(0, highs)
        assert got.tolist() == [int(ref_rng.integers(0, h)) for h in highs]
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sample_weak_pairs_matches_scalar_draws():
    """One call gives the picks, and leaves the rng state, of one scalar
    draw per row, at random pool sizes (1 included) and row counts (odd
    ones included)."""
    cases = np.random.default_rng(99)
    for _ in range(300):
        candidates = [np.sort(cases.choice(1000, replace=False,
                                           size=int(cases.integers(1, 40))))
                      for _ in range(int(cases.integers(1, 20)))]
        rows = cases.integers(0, len(candidates),
                              size=int(cases.integers(0, 130)))
        seed = int(cases.integers(0, 2**63))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_weak_pairs(candidates, rows, rng)
        assert got.tolist() == [weak_pair(candidates, i, ref_rng) for i in rows]
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_weak_pair_contract(dataset):
    rng = np.random.default_rng(3)
    candidates = weak_candidates(dataset)
    rows = np.arange(0, len(dataset), 37)
    for i, weak in zip(rows, sample_weak_pairs(candidates, rows, rng)):
        assert dataset.class_id[weak] == dataset.class_id[i]
        assert dataset.video_id[weak] != dataset.video_id[i]


def test_weak_pair_forced_choice():
    m = DatasetManifest(classes=1, videos_per_class=2, records_per_video=1,
                        bias_spec={}, seed=2)
    ds = generate_dataset(m)
    weak, = sample_weak_pairs(weak_candidates(ds), [0],
                              np.random.default_rng(0))
    assert ds.video_id[weak] == ds.video_id[1]


def test_weak_pair_fallback_logs_warning(caplog):
    m = DatasetManifest(classes=1, videos_per_class=1, records_per_video=2,
                        bias_spec={}, seed=2)
    ds = generate_dataset(m)
    with caplog.at_level("WARNING"):
        candidates = weak_candidates(ds)
    weak, = sample_weak_pairs(candidates, [0], np.random.default_rng(0))
    assert ds.class_id[weak] == ds.class_id[0]
    assert [rec.message for rec in caplog.records] == \
           ["weak pair fallback: class 0 has a single video"]


def test_weak_pair_uniform_chi_squared(dataset):
    # one record from a 6-video class: 5 candidate videos, dof 4
    rng = np.random.default_rng(9)
    candidates = weak_candidates(dataset)
    counts: dict[int, int] = {}
    for weak in sample_weak_pairs(candidates, np.zeros(10_000, int), rng):
        video = int(dataset.video_id[weak])
        counts[video] = counts.get(video, 0) + 1
    assert len(counts) == 5
    expected = 10_000 / 5
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2_survival_even_dof(stat, 4) > 0.01


def test_manifest_validation():
    with pytest.raises(ParameterError):
        DatasetManifest(classes=0).validate()
    with pytest.raises(ParameterError):
        DatasetManifest(pixels=60).validate()
    with pytest.raises(ParameterError):
        DatasetManifest(intensity_min=0.1).validate()
    with pytest.raises(ParameterError):
        DatasetManifest(bias_spec={9: 0}).validate()


def test_manifest_text_roundtrip(manifest):
    text = data.manifest_to_text(manifest)
    back = data.manifest_from_text(text)
    assert back == manifest


def test_dataset_roundtrip_bit_exact(tmp_path, manifest, dataset):
    save_dataset(tmp_path / "ds", manifest, dataset)
    m2, ds2 = load_dataset(tmp_path / "ds")
    assert m2 == manifest
    assert_same_columns(dataset, ds2)
    # byte-identical files on re-save
    save_dataset(tmp_path / "ds2", m2, ds2)
    for name in ("manifest.txt", "audio.tmd", "image.tmd", "text.tmd",
                 "ids.tmd", "intensity.tmd"):
        assert (tmp_path / "ds" / name).read_bytes() == \
               (tmp_path / "ds2" / name).read_bytes()


def test_tmd_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.tmd"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(UsageError):
        data._read_tmd(p, "<f8", (0,))


def _edit_ids(column, row, value):
    def edit(d, ds):
        ids = np.stack([ds.class_id, ds.video_id, ds.nuisance_id], axis=1)
        ids[row, column] = value
        data._write_tmd(d / "ids.tmd", ids)
    return edit


def _edit_text(d, ds):
    text = ds.text.copy()
    text[5, 0] = VOCAB_SIZE
    data._write_tmd(d / "text.tmd", text)


def _edit_manifest(d, ds):
    path = d / "manifest.txt"
    path.write_text(path.read_text().replace("pixels=64", "pixels=60"))


LOAD_CHECKS = {
    "token_outside_vocabulary": (_edit_text, "text.tmd: token id outside"),
    "class_id_out_of_range": (_edit_ids(0, 3, 8), "ids.tmd: ids outside"),
    "video_in_other_class": (_edit_ids(1, 3, 47), "ids.tmd: ids outside"),
    "image_row_count": (lambda d, ds: data._write_tmd(d / "image.tmd",
                                                      ds.image[:-1]),
                        "image.tmd: shape (383, 64) does not match (384, 64)"),
    "invalid_manifest": (_edit_manifest, "manifest.txt: "),
}


@pytest.mark.parametrize("name", sorted(LOAD_CHECKS))
def test_load_checks_columns_against_manifest(name, tmp_path, manifest,
                                              dataset):
    edit, needle = LOAD_CHECKS[name]
    save_dataset(tmp_path, manifest, dataset)
    edit(tmp_path, dataset)
    with pytest.raises((UsageError, ParameterError), match=re.escape(needle)):
        load_dataset(tmp_path)
