import hashlib
import os
import itertools
from dataclasses import replace

import numpy as np
import pytest

from sgim import autodiff as ad
from sgim import encoders
from sgim.augment import VOCAB_SIZE, bag_matrix
from sgim.config import RunConfig
from sgim.data import (DatasetManifest, MiniBatch, generate_dataset,
                       label_tokens, sample_minibatch, sample_weak_pairs,
                       split_by_video, weak_candidates)
from sgim.encoders import (PARAM_KEYS, EncoderParams, TeacherParams,
                           cyclic_lr, encode_np,
                           init_encoder_params, pretrain_teacher,
                           train_audio_encoder)
from sgim.errors import DegenerateInputError, NumericsError, UsageError
from sgim.losses import LossBreakdown

from graph_reference import (encode_nodes, encoder_param_nodes,
                             graph_audio_step, graph_teacher_step,
                             max_rel_error_loop)

# regression anchor: init-loss breakdown on the seeded N=8 batch,
# master seed 7, pinned from the reference run
PINNED_INIT_TOTAL = 19.0647236538209

# sha256 of the canonical seed-7 training's parameter bytes (the conftest
# teacher's text and image encoders, and the audio encoder), each array of
# PARAM_KEYS in order. Training must reproduce them bit for bit; a refactor
# that moves them has changed the numbers, not only the code.
PINNED_TRAINING_SHA256 = {
    "text": "fda1f6dcd5730ec62e8d1abad24972a316c0fc4dbb8c24a60076a34707d3cc68",
    "image": "0809d30344dbd7187e497f1516eed636d30807773377d291adeedb4221cb5094",
    "audio": "a9f0d7776686b2fdcd6f74c8100700fd239b530095f8715af903d950ede5f52d",
}


def params_hash(params: EncoderParams) -> str:
    h = hashlib.sha256()
    for k in PARAM_KEYS:
        h.update(getattr(params, k).tobytes())
    return h.hexdigest()


def batch_total_loss(batch: MiniBatch, images: np.ndarray,
                     weak_images: np.ndarray, audio_params: EncoderParams,
                     teacher: TeacherParams,
                     config: RunConfig) -> LossBreakdown:
    """Loss breakdown for a prepared batch of the dataset whose image column
    is ``images``, no parameter updates."""
    n = len(batch.rows)
    x = batch.audio.reshape(n, -1)
    t = encode_np(teacher.text, bag_matrix(batch.text))
    v = encode_np(teacher.image, images[batch.rows])
    v_weak = encode_np(teacher.image, weak_images)
    breakdown, _ = encoders.audio_step(audio_params, x,
                                       batch.audio_aug.reshape(n, -1), t, v,
                                       (x, v_weak, t), config)
    return breakdown


def test_init_params_deterministic_and_shaped():
    a = init_encoder_params(np.random.default_rng(3), 200, 64, 32)
    b = init_encoder_params(np.random.default_rng(3), 200, 64, 32)
    assert params_hash(a) == params_hash(b)
    assert a.w1.shape == (200, 64) and a.w3.shape == (64, 32)


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
        encode_np(p, np.zeros((1, 6)))


def test_encode_np_deterministic():
    p = init_encoder_params(np.random.default_rng(0), 6, 4, 3)
    mel = np.random.default_rng(2).standard_normal((2, 3))
    row = mel.reshape(1, -1)
    assert encode_np(p, row).tobytes() == encode_np(p, row).tobytes()
    assert abs(np.linalg.norm(encode_np(p, row)) - 1.0) < 1e-9


def test_stacked_encode_rows_equal_single_encodes(dataset, audio_encoder,
                                                  teacher):
    # a one-row encode runs as two copies of its row, so every row of a
    # stacked encode equals its record's encode alone
    audio, text = audio_encoder[0], teacher[0].text
    rows = np.random.default_rng(8).choice(len(dataset), size=9,
                                           replace=False)
    for size in (1, 2, 3, 9):
        picked = rows[:size]
        stacked = encode_np(audio, dataset.audio[picked].reshape(size, -1))
        labels = encode_np(text, bag_matrix(dataset.text[picked]))
        for i, r in enumerate(picked):
            assert stacked[i].tobytes() == encode_np(
                audio, dataset.audio[r].reshape(1, -1))[0].tobytes()
            assert labels[i].tobytes() == encode_np(
                text, bag_matrix([dataset.text[r]]))[0].tobytes()


def test_bag_of_tokens_permutation_invariant():
    p = init_encoder_params(np.random.default_rng(0), VOCAB_SIZE, 8, 4)
    a = encode_np(p, bag_matrix([[0, 3, 5]]))
    b = encode_np(p, bag_matrix([[5, 0, 3]]))
    assert np.array_equal(a, b)


def test_cyclic_lr_schedule():
    assert cyclic_lr(0.1, 0, 10) == pytest.approx(0.1)
    assert cyclic_lr(0.1, 5, 10) == pytest.approx(0.01)  # floor = lr/10 mid-period
    assert cyclic_lr(0.1, 10, 10) == pytest.approx(0.1)  # period restart
    assert cyclic_lr(0.1, 3, 10) < cyclic_lr(0.1, 2, 10)


def test_pretrain_rejects_empty_and_tiny_batch(dataset):
    with pytest.raises(UsageError):
        pretrain_teacher(dataset.take(np.arange(0)), RunConfig())
    with pytest.raises(UsageError):
        pretrain_teacher(dataset.take(np.arange(8)), RunConfig(batch_size=1))


def test_teacher_loss_decreases(teacher):
    _, log = teacher
    first = log[0][1]
    assert log[9][1] < first
    assert np.mean([v for _, v in log[-3:]]) < first


def test_teacher_retrieval_on_held_out(teacher, splits, manifest):
    params, _ = teacher
    _, held = splits
    labels = [label_tokens(c) for c in range(manifest.classes)]
    t = encode_np(params.text, bag_matrix(labels))
    v = encode_np(params.image, held.image)
    accuracy = float((np.argmax(v @ t.T, axis=1) == held.class_id).mean())
    assert accuracy >= 0.95


def test_teacher_text_classes_separated(teacher, manifest):
    params, _ = teacher
    labels = [label_tokens(c) for c in range(manifest.classes)]
    t = encode_np(params.text, bag_matrix(labels))
    sims = t @ t.T
    off_diag = sims[~np.eye(manifest.classes, dtype=bool)]
    assert off_diag.max() < 0.9


def test_canonical_training_pinned(teacher, audio_encoder):
    # text augmentation and both training loops must leave every
    # parameter byte of the seed-7 models as it was
    got = {"text": params_hash(teacher[0].text),
           "image": params_hash(teacher[0].image),
           "audio": params_hash(audio_encoder[0])}
    assert got == PINNED_TRAINING_SHA256


def test_teacher_image_rows_batch_invariant(splits, teacher):
    """``train_audio_encoder`` encodes the teacher's images once and indexes
    the rows of each batch: every row must be byte-equal to its encode in
    a 64- or an 8-row batch."""
    train, _ = splits
    image = teacher[0].image
    full = encode_np(image, train.image)
    rng = np.random.default_rng(13)
    for size in (64, 8):
        for _ in range(100):
            rows = rng.choice(len(train), size=size, replace=False)
            assert (encode_np(image, train.image[rows]).tobytes()
                    == full[rows].tobytes())


def test_teacher_marked_frozen(teacher):
    params, _ = teacher
    assert params.text.frozen and params.image.frozen


def test_audio_training_requires_frozen_teacher(splits, teacher):
    train, _ = splits
    thawed = TeacherParams(text=replace(teacher[0].text, frozen=False),
                           image=replace(teacher[0].image, frozen=False))
    with pytest.raises(UsageError):
        train_audio_encoder(train, thawed, RunConfig(audio_epochs=1))


def test_audio_training_rejects_tiny_batch(splits, teacher):
    train, _ = splits
    with pytest.raises(UsageError):
        train_audio_encoder(train, teacher[0], RunConfig(batch_size=1))


def test_teacher_untouched_by_audio_stage(splits, teacher, run_config):
    train, _ = splits
    before = (params_hash(teacher[0].text), params_hash(teacher[0].image))
    train_audio_encoder(train, teacher[0], replace(run_config, audio_epochs=1))
    after = (params_hash(teacher[0].text), params_hash(teacher[0].image))
    assert before == after


def test_audio_training_deterministic(splits, teacher, run_config):
    train, _ = splits
    cfg = replace(run_config, audio_epochs=3)
    a, _ = train_audio_encoder(train, teacher[0], cfg)
    b, _ = train_audio_encoder(train, teacher[0], cfg)
    assert params_hash(a) == params_hash(b)


def test_pinned_init_loss_breakdown(splits, teacher, run_config):
    train, _ = splits
    rng = np.random.default_rng(run_config.seed_for("audio"))
    audio_p = init_encoder_params(rng, 200, run_config.hidden_dim,
                                  run_config.embed_dim)
    brng = np.random.default_rng(0)
    batch = sample_minibatch(train, 8, brng, run_config.freq_mask_ratio,
                             run_config.time_mask_ratio)
    candidates = weak_candidates(train)
    weak = sample_weak_pairs(candidates, batch.rows, brng)
    br = batch_total_loss(batch, train.image, train.image[weak], audio_p,
                          teacher[0], run_config)
    assert br.total == pytest.approx(PINNED_INIT_TOTAL, rel=1e-9)
    assert br.total == pytest.approx(
        br.nce_at + br.nce_av + br.self_aa + br.kl_weak, abs=1e-9)


def test_training_lowers_total_loss(splits, teacher, audio_encoder, run_config):
    train, _ = splits
    rng = np.random.default_rng(run_config.seed_for("audio"))
    init_p = init_encoder_params(rng, 200, run_config.hidden_dim,
                                 run_config.embed_dim)
    brng = np.random.default_rng(5)
    batch = sample_minibatch(train, 32, brng, run_config.freq_mask_ratio,
                             run_config.time_mask_ratio)
    candidates = weak_candidates(train)
    weak = train.image[sample_weak_pairs(candidates, batch.rows, brng)]
    before = batch_total_loss(batch, train.image, weak, init_p, teacher[0],
                              run_config)
    after = batch_total_loss(batch, train.image, weak, audio_encoder[0],
                             teacher[0], run_config)
    assert after.total < before.total


def test_weak_pair_fallback_warns_once_per_class(caplog):
    # two videos per class: the training split keeps one, so every class
    # falls back to same-video weak pairs for the whole run
    manifest = DatasetManifest(videos_per_class=2, records_per_video=4)
    train, _ = split_by_video(generate_dataset(manifest), manifest)
    rng = np.random.default_rng(0)
    teacher = TeacherParams(
        text=init_encoder_params(rng, VOCAB_SIZE, 16, 8),
        image=init_encoder_params(rng, manifest.pixels, 16, 8))
    teacher.text.frozen = teacher.image.frozen = True
    with caplog.at_level("WARNING", logger="sgim.data"):
        train_audio_encoder(train, teacher, RunConfig(
            audio_epochs=2, hidden_dim=16, embed_dim=8))
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


def test_encode_vjp_matches_graph_bit_exact():
    rng = np.random.default_rng(12)
    p = init_encoder_params(rng, 10, 16, 8)
    x = rng.standard_normal((6, 10))
    probe = rng.standard_normal((6, 8))
    y, vjp = encoders.encode_vjp(p, x)
    pnodes = encoder_param_nodes(p)
    y_node = encode_nodes(pnodes, ad.constant(x))
    ad.backward(ad.sum_all(ad.mul_elementwise(y_node, ad.constant(probe))))
    assert y.tobytes() == y_node.value.tobytes()
    grads = vjp(probe)
    for k in PARAM_KEYS:
        assert (0.0 + grads[k]).tobytes() == pnodes[k].grad.tobytes(), k


@pytest.mark.parametrize("key", PARAM_KEYS)
def test_encode_vjp_matches_fd(key):
    rng = np.random.default_rng(13)
    p = init_encoder_params(rng, 7, 6, 5)
    x = rng.standard_normal((4, 7))
    probe = rng.standard_normal((4, 5))

    def value(arr):
        return float((encode_np(replace(p, **{key: arr}), x) * probe).sum())

    _, vjp = encoders.encode_vjp(p, x)
    assert max_rel_error_loop(vjp(probe)[key], value,
                              getattr(p, key)) < 1e-5


_MOMENTUM_SGD = encoders._MomentumSGD


def _recording_optimizer(monkeypatch, states: list) -> None:
    """Make every optimizer append (params, velocities) bytes after each
    step to ``states``."""
    class Recording(_MOMENTUM_SGD):
        def step(self, arrays, grads, lr):
            super().step(arrays, grads, lr)
            states.append([(a.tobytes(), self.velocity[k].tobytes())
                           for k, a in arrays.items()])

    monkeypatch.setattr(encoders, "_MomentumSGD", Recording)


def _log_bytes(log) -> bytes:
    """The loss log as float64 bytes: each epoch, then its loss or each
    component of its breakdown."""
    return np.array([np.hstack([e, v]) for e, v in log]).tobytes()


# both sides of each comparison train from one master seed
SIDE_BY_SIDE = RunConfig(master_seed=5, teacher_lr=0.1, audio_lr=0.1,
                         teacher_epochs=3, audio_epochs=3, batch_size=32,
                         hidden_dim=16)


def test_teacher_step_matches_graph_over_training(splits, monkeypatch):
    train, _ = splits
    runs = []
    for step in (encoders.teacher_step, graph_teacher_step):
        states: list = []
        _recording_optimizer(monkeypatch, states)
        monkeypatch.setattr(encoders, "teacher_step", step)
        params, log = pretrain_teacher(train,
                                       replace(SIDE_BY_SIDE, embed_dim=8))
        runs.append((states, _log_bytes(log),
                     params_hash(params.text), params_hash(params.image)))
    assert len(runs[0][0]) >= 2 * 20  # two optimizers, >= 20 steps each
    assert runs[0] == runs[1]


def _flags(at, av, own, kl, full=False) -> dict[str, bool]:
    return {"use_loss_at": at, "use_loss_av": av, "use_loss_self": own,
            "use_loss_kl": kl, "kl_full_rows": full}


# every use_loss_* combination with at least one term on; kl_full_rows
# changes something only with the weak term on
FLAG_SETS = [_flags(at, av, own, kl, full)
             for at, av, own, kl in itertools.product((True, False), repeat=4)
             if at or av or own or kl
             for full in ((False, True) if kl else (False,))]


def _flags_id(flags: dict[str, bool]) -> str:
    return "+".join(name.removeprefix("use_loss_").removeprefix("kl_")
                    for name, on in flags.items() if on)


@pytest.mark.parametrize("flags", FLAG_SETS, ids=_flags_id)
def test_audio_step_matches_graph_over_training(flags, splits, teacher,
                                                monkeypatch):
    train, _ = splits
    cfg = replace(SIDE_BY_SIDE, **flags)
    runs = []
    for step in (encoders.audio_step, graph_audio_step):
        states: list = []
        _recording_optimizer(monkeypatch, states)
        monkeypatch.setattr(encoders, "audio_step", step)
        params, log = train_audio_encoder(train, teacher[0], cfg)
        runs.append((states, _log_bytes(log), params_hash(params)))
    assert len(runs[0][0]) >= 20
    assert runs[0] == runs[1]


@pytest.mark.parametrize("flags, one_class", [
    (_flags(False, False, False, False), False),
    (_flags(False, False, False, False, full=True), False),
    # the weak term's batch holds one row per class
    (_flags(False, False, False, True), True)],
    ids=["all_off", "full_rows_only", "weak_term_on_one_class"])
def test_audio_training_rejects_no_loss_term(flags, one_class, splits,
                                             teacher):
    train, _ = splits
    if one_class:
        train = train.take(train.class_id == 0)
    with pytest.raises(UsageError, match="no loss term is enabled"):
        train_audio_encoder(train, teacher[0], RunConfig(**flags))


def test_training_divergence_raises_numerics_error(splits, teacher):
    # a step of lr 1e308 overflows the velocities, so the next forward
    # pass produces NaN
    train, _ = splits
    with pytest.raises(NumericsError, match=r"^pretrain-teacher: loss or "
                       r"gradient became non-finite at epoch 0, step \d+$"):
        pretrain_teacher(train, RunConfig(teacher_lr=1e308, teacher_epochs=2))
    with pytest.raises(NumericsError, match=r"^train-audio: loss or gradient "
                       r"became non-finite at epoch 0, step \d+$"):
        train_audio_encoder(train, teacher[0],
                            RunConfig(audio_lr=1e308, audio_epochs=2))
    # non-finite audio fails the first step
    bad = replace(train, audio=np.full_like(train.audio, np.inf))
    with pytest.raises(NumericsError, match="epoch 0, step 0$"):
        train_audio_encoder(bad, teacher[0], RunConfig(audio_epochs=1))


# the draws of both training loops run in a forked child; these tests
# check that the parent hears of every way the child can end

FEW_STEPS = RunConfig(teacher_epochs=2, audio_epochs=2)


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_training_leaves_no_child_process(splits, teacher):
    train, _ = splits
    pretrain_teacher(train, FEW_STEPS)
    train_audio_encoder(train, teacher[0], FEW_STEPS)
    _assert_no_child_left()
    with pytest.raises(NumericsError, match="non-finite at epoch 0"):
        train_audio_encoder(train, teacher[0],
                            replace(FEW_STEPS, audio_lr=1e308))
    _assert_no_child_left()


def _draw_patches(monkeypatch, on_draw) -> list:
    """Calls ``on_draw(k)`` at the start of the teacher's draw k (one
    ``augment_bags`` call each), and returns the list that gets one entry
    per learned step."""
    parent, drawn, learned = os.getpid(), [0], []
    augment_bags, teacher_step = encoders.augment_bags, encoders.teacher_step

    def patched_bags(*args):
        assert os.getpid() != parent, "a draw ran in the parent"
        on_draw(drawn[0])
        drawn[0] += 1
        return augment_bags(*args)

    def counted_step(*args):
        learned.append(None)
        return teacher_step(*args)

    monkeypatch.setattr(encoders, "augment_bags", patched_bags)
    monkeypatch.setattr(encoders, "teacher_step", counted_step)
    return learned


@pytest.mark.parametrize("k", [0, 7])
def test_draw_error_reaches_the_parent_at_its_step(k, splits, monkeypatch):
    def refuse(step):
        if step == k:
            raise UsageError(f"draw {step} refused")

    learned = _draw_patches(monkeypatch, refuse)
    with pytest.raises(UsageError, match=f"^draw {k} refused$") as exc:
        pretrain_teacher(splits[0], FEW_STEPS)
    assert type(exc.value) is UsageError
    assert len(learned) == k
    _assert_no_child_left()


def test_producer_that_exits_early_is_numerics_error(splits, monkeypatch):
    def leave(step):
        if step == 3:
            os._exit(0)

    learned = _draw_patches(monkeypatch, leave)
    with pytest.raises(NumericsError, match="^pretrain-teacher: the batch "
                       "producer exited before sending a batch$"):
        pretrain_teacher(splits[0], FEW_STEPS)
    assert len(learned) == 3
    _assert_no_child_left()
