import numpy as np
import pytest

from sgim import encoders
from sgim.augment import TokenSeq, default_vocabulary
from sgim.data import (DatasetManifest, generate_dataset, label_token_seq,
                       sample_minibatch, sample_weak_pair, split_by_video,
                       weak_candidates)
from sgim.encoders import (TeacherParams, TrainConfig, bag_of_tokens,
                           batch_total_loss, cyclic_lr, encode_audio,
                           encode_image, encode_np, encode_text,
                           init_encoder_params, params_hash, pretrain_teacher,
                           train_audio_encoder)
from sgim.errors import DegenerateInputError, UsageError

# regression anchor: init-loss breakdown on the seeded N=8 batch,
# master seed 7, pinned from the reference run
PINNED_INIT_TOTAL = 19.0647236538209


def test_init_params_deterministic_and_shaped():
    a = init_encoder_params(np.random.default_rng(3), 200, 64, 32)
    b = init_encoder_params(np.random.default_rng(3), 200, 64, 32)
    assert params_hash(a) == params_hash(b)
    assert a.w1.shape == (200, 64) and a.w3.shape == (64, 32)
    assert a.in_dim == 200 and a.out_dim == 32


def test_embeddings_unit_norm():
    p = init_encoder_params(np.random.default_rng(0), 10, 16, 8)
    x = np.random.default_rng(1).standard_normal((5, 10))
    e = encode_np(p, x)
    assert np.all(np.abs(np.linalg.norm(e, axis=1) - 1.0) < 1e-9)


def test_zero_input_zero_biases_degenerate():
    p = init_encoder_params(np.random.default_rng(0), 6, 4, 3)
    for name in ("b1", "b2", "b3"):
        getattr(p, name)[:] = 0.0
    with pytest.raises(DegenerateInputError):
        encode_audio(np.zeros((2, 3)), p)


def test_encode_audio_deterministic():
    p = init_encoder_params(np.random.default_rng(0), 6, 4, 3)
    mel = np.random.default_rng(2).standard_normal((2, 3))
    assert encode_audio(mel, p).tobytes() == encode_audio(mel, p).tobytes()
    assert abs(np.linalg.norm(encode_audio(mel, p)) - 1.0) < 1e-9


def test_bag_of_tokens_permutation_invariant():
    v = default_vocabulary()
    p = init_encoder_params(np.random.default_rng(0), len(v), 8, 4)
    a = encode_text(TokenSeq((0, 3, 5), v), p)
    b = encode_text(TokenSeq((5, 0, 3), v), p)
    assert np.array_equal(a, b)


def test_empty_token_sequence_degenerate():
    v = default_vocabulary()
    with pytest.raises(DegenerateInputError):
        bag_of_tokens(TokenSeq((), v))


def test_cyclic_lr_schedule():
    assert cyclic_lr(0.1, 0) == pytest.approx(0.1)
    assert cyclic_lr(0.1, 5) == pytest.approx(0.01)   # floor = lr/10 mid-period
    assert cyclic_lr(0.1, 10) == pytest.approx(0.1)   # period restart
    assert cyclic_lr(0.1, 3) < cyclic_lr(0.1, 2)


def test_pretrain_rejects_empty_and_tiny_batch(dataset):
    with pytest.raises(UsageError):
        pretrain_teacher(dataset.take(np.arange(0)), TrainConfig())
    with pytest.raises(UsageError):
        pretrain_teacher(dataset.take(np.arange(8)), TrainConfig(batch_size=1))


def test_teacher_loss_decreases(teacher):
    _, log = teacher
    first = log[0][1]
    assert log[9][1] < first
    assert np.mean([v for _, v in log[-3:]]) < first


def test_teacher_retrieval_on_held_out(teacher, splits, manifest):
    params, _ = teacher
    _, held = splits
    vocab = default_vocabulary()
    labels = [label_token_seq(vocab, c).tokens for c in range(manifest.classes)]
    t = encode_np(params.text, encoders.bag_matrix(labels, len(vocab)))
    v = encode_np(params.image, held.image)
    accuracy = float((np.argmax(v @ t.T, axis=1) == held.class_id).mean())
    assert accuracy >= 0.95


def test_teacher_text_classes_separated(teacher, manifest):
    params, _ = teacher
    vocab = default_vocabulary()
    labels = [label_token_seq(vocab, c).tokens for c in range(manifest.classes)]
    t = encode_np(params.text, encoders.bag_matrix(labels, len(vocab)))
    sims = t @ t.T
    off_diag = sims[~np.eye(manifest.classes, dtype=bool)]
    assert off_diag.max() < 0.9


def test_teacher_marked_frozen(teacher):
    params, _ = teacher
    assert params.text.frozen and params.image.frozen


def test_audio_training_requires_frozen_teacher(splits, teacher):
    train, _ = splits
    thawed = type(teacher[0])(text=teacher[0].text.copy(frozen=False),
                              image=teacher[0].image.copy(frozen=False))
    with pytest.raises(UsageError):
        train_audio_encoder(train, thawed, TrainConfig(epochs=1))


def test_audio_training_rejects_tiny_batch(splits, teacher):
    train, _ = splits
    with pytest.raises(UsageError):
        train_audio_encoder(train, teacher[0], TrainConfig(batch_size=1))


def test_teacher_untouched_by_audio_stage(splits, teacher, run_config):
    train, _ = splits
    before = (params_hash(teacher[0].text), params_hash(teacher[0].image))
    cfg = run_config.audio_train_config()
    cfg.epochs = 1
    train_audio_encoder(train, teacher[0], cfg)
    after = (params_hash(teacher[0].text), params_hash(teacher[0].image))
    assert before == after


def test_audio_training_deterministic(splits, teacher, run_config):
    train, _ = splits
    cfg = run_config.audio_train_config()
    cfg.epochs = 3
    a, _ = train_audio_encoder(train, teacher[0], cfg)
    b, _ = train_audio_encoder(train, teacher[0], cfg)
    assert params_hash(a) == params_hash(b)


def test_pinned_init_loss_breakdown(splits, teacher, run_config):
    train, _ = splits
    rng = np.random.default_rng(run_config.seed_for("audio"))
    audio_p = init_encoder_params(rng, 200, run_config.hidden_dim,
                                  run_config.embed_dim)
    brng = np.random.default_rng(0)
    batch = sample_minibatch(train, 8, brng)
    candidates = weak_candidates(train)
    weak = [sample_weak_pair(candidates, i, brng) for i in batch.rows]
    br = batch_total_loss(batch, train.image[weak], audio_p, teacher[0],
                          run_config.tau)
    assert br.total == pytest.approx(PINNED_INIT_TOTAL, rel=1e-9)
    assert br.total == pytest.approx(
        br.nce_at + br.nce_av + br.self_aa + br.kl_weak, abs=1e-9)


def test_training_lowers_total_loss(splits, teacher, audio_encoder, run_config):
    train, _ = splits
    rng = np.random.default_rng(run_config.seed_for("audio"))
    init_p = init_encoder_params(rng, 200, run_config.hidden_dim,
                                 run_config.embed_dim)
    brng = np.random.default_rng(5)
    batch = sample_minibatch(train, 32, brng)
    candidates = weak_candidates(train)
    weak = train.image[[sample_weak_pair(candidates, i, brng)
                        for i in batch.rows]]
    before = batch_total_loss(batch, weak, init_p, teacher[0], run_config.tau)
    after = batch_total_loss(batch, weak, audio_encoder[0], teacher[0],
                             run_config.tau)
    assert after.total < before.total


def test_weak_pair_fallback_warns_once_per_class(caplog):
    # two videos per class: the training split keeps one, so every class
    # falls back to same-video weak pairs for the whole run
    manifest = DatasetManifest(videos_per_class=2, records_per_video=4)
    train, _ = split_by_video(generate_dataset(manifest), manifest)
    rng = np.random.default_rng(0)
    teacher = TeacherParams(
        text=init_encoder_params(rng, len(default_vocabulary()), 16, 8),
        image=init_encoder_params(rng, manifest.pixels, 16, 8))
    teacher.text.frozen = teacher.image.frozen = True
    with caplog.at_level("WARNING", logger="sgim.data"):
        train_audio_encoder(train, teacher, TrainConfig(epochs=2), hidden=16,
                            embed_dim=8)
    fallbacks = [r.message for r in caplog.records if "fallback" in r.message]
    assert len(fallbacks) == manifest.classes
    assert len(set(fallbacks)) == manifest.classes


def test_loss_log_csv_format(audio_encoder):
    _, log = audio_encoder
    csv = encoders.loss_log_csv(log)
    lines = csv.strip().splitlines()
    assert lines[0] == "epoch,nce_at,nce_av,self_aa,kl_weak,total"
    assert len(lines) == len(log) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[5]) > 0


def test_encode_image_shape_guard(teacher):
    params, _ = teacher
    with pytest.raises(Exception):
        encode_image(np.ones(13), params.image)
