"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 4 and 8 rebuild their pipelines from scratch inside the timed
body, so their printed runtimes are honest end-to-end costs, not fixture
cache hits. Criteria 5 and 6 take the dataset, teacher and models from the
session fixtures and time only their own stage: criterion 6 its
manipulations, criterion 5 the weak-loss ablation, which the
``ablation_report`` fixture runs and times once for the whole session. The
direction-statistics check (criterion 9) is soft: it prints its diagnostic
and only validates report structure.
"""

import filecmp
import math
import time

import numpy as np

from sgim.cli import main as cli_main
from sgim.config import RunConfig
from sgim.data import (generate_dataset, load_dataset, save_dataset,
                       split_by_video)
from sgim.encoders import (audio_step, encode_np, init_encoder_params,
                           pretrain_teacher, train_audio_encoder)
from sgim.evaluate import soft_direction_check, zero_shot_classify
from sgim.generator import synthesize
from sgim.gradcheck import TOLERANCE, run_gradient_checks
from sgim.losses import info_nce, similarity, weak_kl
from sgim.manipulate import interpolate, optimize_guided, style_mix

from conftest import AUDIO_INDEX, MASTER_SEED, SOURCE_INDEX
from graph_reference import (diag_cross_entropy_term, hinge_from_distances,
                             hinge_loss, identity_features, moving_average)


def _verdict(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def info_nce_pair(a, b, tau):
    return info_nce(a, b, tau)[0]


def step_breakdown(seed, n=6, **flags):
    """The audio step's loss breakdown for a random encoder, audio batch and
    teacher embeddings; the weak term runs on the batch itself."""
    rng = np.random.default_rng(seed)
    params = init_encoder_params(rng, 10, 12, 8)
    x, x_aug = rng.standard_normal((2, n, 10))
    t, v, v_weak = (_unit_rows(rng, n, 8) for _ in range(3))
    return audio_step(params, x, x_aug, t, v, (x, v_weak, t),
                      RunConfig(tau=0.2, **flags))[0]


def test_criterion_1_gradient_oracle():
    start = time.monotonic()
    results = run_gradient_checks(seed=0)
    elapsed = time.monotonic() - start
    worst = max(r.max_rel_error for r in results)
    ok = all(r.passed for r in results) and elapsed < 30.0
    _verdict(1, ok, f"{len(results)} checks, worst rel err {worst:.2e} "
                    f"(gate {TOLERANCE}), {elapsed:.1f}s (< 30s)")


def test_criterion_2_loss_invariants():
    start = time.monotonic()
    rng = np.random.default_rng(123)
    ok = True
    notes = []
    for _ in range(5):
        a, b = _unit_rows(rng, 6, 8), _unit_rows(rng, 6, 8)
        tau = float(rng.uniform(0.05, 1.0))
        m = similarity(a, b, tau)
        ok &= bool(np.all(np.abs(m.sum(axis=1) - 1.0) < 1e-9))
        loss = info_nce_pair(a, b, tau)
        ok &= loss >= 0.0
        perm = rng.permutation(6)
        ok &= abs(info_nce_pair(a[perm], b[perm], tau) - loss) < 1e-9
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        ok &= abs(info_nce_pair(a @ q, b @ q, tau) - loss) < 1e-9
    notes.append("row-stochastic, non-negative, permutation/rotation invariant")
    # weak loss: zero at perfect diagonals, monotone in the student diagonal
    ok &= diag_cross_entropy_term(1.0, 1.0) == 0.0
    v, t = _unit_rows(rng, 3, 8), _unit_rows(rng, 3, 8)
    vals = []
    for w in (0.1, 0.5, 0.9):
        a = _unit_rows(np.random.default_rng(5), 3, 8) * (1 - w) + v * w
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        vals.append(weak_kl(a, v, t, 0.3, False)[0])
    ok &= vals[0] > vals[1] > vals[2]
    notes.append("weak-loss zero/monotonicity")
    br = step_breakdown(124)
    ok &= abs(br.total - (br.nce_at + br.nce_av + br.self_aa + br.kl_weak)) < 1e-9
    ablated = step_breakdown(124, use_loss_self=False)
    ok &= ablated.self_aa == 0.0
    ok &= abs(ablated.total - (ablated.nce_at + ablated.nce_av
                               + ablated.kl_weak)) < 1e-9
    notes.append("breakdown additivity")
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    _verdict(2, ok, "; ".join(notes) + f"; {elapsed:.1f}s (< 10s)")


def test_criterion_3_hand_computed_values(gen_fit, model_bundle):
    start = time.monotonic()
    e = math.e
    m = similarity(np.eye(2), np.eye(2), tau=1.0)
    ok = np.allclose(m, [[e / (e + 1), 1 / (e + 1)],
                         [1 / (e + 1), e / (e + 1)]], atol=1e-4)
    ok &= abs(m[0, 0] - 0.73106) < 1e-4
    ok &= abs(info_nce_pair(np.eye(2), np.eye(2), tau=1.0) - 0.62652) < 1e-4
    ok &= abs(diag_cross_entropy_term(1.0, 0.5) - 0.69315) < 1e-4
    ok &= abs(diag_cross_entropy_term(0.5, 0.5) - 0.34657) < 1e-4
    # the weak term itself at p_ii = q_ii = 1/2: student and teacher rows
    # both lie halfway between the two weak images
    half = np.full((2, 2), math.sqrt(0.5))
    ok &= abs(weak_kl(half, np.eye(2), half, tau=1.0, full_rows=False)[0]
              - 0.34657) < 1e-4
    # hinge {1, 0, 2}: tie through the real models, then the scalar cases
    w_s = gen_fit.latents[SOURCE_INDEX]
    target = np.zeros(32)
    target[0] = 1.0
    ok &= abs(hinge_loss(w_s, w_s, target, model_bundle.generator,
                         model_bundle.image) - 1.0) < 1e-4
    ok &= abs(hinge_from_distances(1.0, 0.0) - 0.0) < 1e-4
    ok &= abs(hinge_from_distances(0.3, 1.3) - 2.0) < 1e-4
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    _verdict(3, ok, f"similarity/InfoNCE/weak/hinge hand values within 1e-4, "
                    f"{elapsed:.2f}s (< 1s)")


def test_criterion_4_end_to_end_training():
    start = time.monotonic()
    config = RunConfig(master_seed=MASTER_SEED)
    manifest = config.dataset_manifest()
    train, held = split_by_video(generate_dataset(manifest), manifest)
    teacher, _ = pretrain_teacher(train, config)
    audio, _ = train_audio_encoder(train, teacher, config)
    report = zero_shot_classify(held, audio, teacher.text, manifest.classes,
                                config)
    rng = np.random.default_rng(config.seed_for("audio"))
    raw = init_encoder_params(rng, manifest.freq_bins * manifest.time_frames,
                              config.hidden_dim, config.embed_dim)
    chance = zero_shot_classify(held, raw, teacher.text, manifest.classes)
    n = len(held)
    p = 1.0 / manifest.classes
    pmf = [math.comb(n, k) * p**k * (1 - p)**(n - k) for k in range(n + 1)]
    cdf = np.cumsum(pmf)
    lo = next(k for k in range(n + 1) if cdf[k] > 0.005)
    hi = next(k for k in range(n + 1) if cdf[k] >= 0.995)
    hits = round(chance.overall * n)
    elapsed = time.monotonic() - start
    ok = report.overall >= 0.9 and lo <= hits <= hi and elapsed < 120.0
    _verdict(4, ok, f"zero-shot {report.overall:.3f} (>= 0.90), seed-init "
                    f"{hits}/{n} in 99% interval [{lo}, {hi}], "
                    f"{elapsed:.1f}s (< 120s)")


def test_criterion_5_weak_loss_ablation(ablation_report):
    # the session fixture times its own ablate_weak_loss call, which
    # test_evaluate shares
    report, elapsed = ablation_report
    ok = (report.cosine_margin >= 0.05
          and report.leakage_with_kl < report.leakage_without_kl
          and elapsed < 240.0)
    _verdict(5, ok, f"cosine margin {report.cosine_margin:+.4f} (>= 0.05), "
                    f"leakage {report.leakage_with_kl:.3f} < "
                    f"{report.leakage_without_kl:.3f}, {elapsed:.1f}s (< 240s)")


def test_criterion_6_manipulation(gen_fit, model_bundle, dataset):
    start = time.monotonic()
    w_s = gen_fit.latents[SOURCE_INDEX]
    target = encode_np(model_bundle.audio,
                       dataset.audio[AUDIO_INDEX].reshape(1, -1))
    config = RunConfig()
    _, _, trajectory = optimize_guided(w_s[None], target, config,
                                       model_bundle)
    hinges = trajectory.hinge[:, 0]
    below = next((i for i, h in enumerate(hinges) if h < 1.0), None)
    ma = moving_average(trajectory.total[:, 0], 20)
    gates_ok = bool(np.all(
        np.abs(trajectory.gate_softmax.sum(axis=-1) - 1.0) < 1e-12))

    def identity_cos(lambda_id):
        w_x, _, _ = optimize_guided(w_s[None], target,
                                    RunConfig(lambda_id=lambda_id),
                                    model_bundle)
        f_s = identity_features(model_bundle.identity,
                                synthesize(w_s, model_bundle.generator))
        f_x = identity_features(model_bundle.identity,
                                synthesize(w_x[0], model_bundle.generator))
        return float(f_s @ f_x)

    id_on, id_off = identity_cos(0.5), identity_cos(0.0)
    elapsed = time.monotonic() - start
    ok = (below is not None and below < 300
          and bool(np.all(np.diff(ma) <= 1e-12))
          and gates_ok and id_on > id_off and elapsed < 60.0)
    _verdict(6, ok, f"hinge < 1 at step {below}, final {hinges[-1]:.3f}; "
                    f"20-step MA non-increasing; gate sums within 1e-12; "
                    f"identity cos {id_on:.4f} > {id_off:.4f}; "
                    f"{elapsed:.1f}s (< 60s)")


def test_criterion_7_interpolation_mixing_exact():
    rng = np.random.default_rng(77)
    w_a, w_t = rng.standard_normal((2, 8, 32))
    ok = interpolate(w_a, w_t, 0.0).tobytes() == w_a.tobytes()
    ok &= interpolate(w_a, w_t, 1.0).tobytes() == w_t.tobytes()
    lhs = interpolate(w_a, w_t, 0.5) + interpolate(w_a, w_t, 0.5)
    ok &= np.array_equal(lhs, w_a + w_t)
    mixed = style_mix(w_a, w_t, 4)
    ok &= mixed[:4].tobytes() == w_a[:4].tobytes()
    ok &= mixed[4:].tobytes() == w_t[4:].tobytes()
    ok &= np.array_equal(style_mix(w_a, w_a, 5), w_a)
    _verdict(7, ok, "endpoints, affine identity, and mix provenance all "
                    "bit-exact (no tolerance)")


def test_criterion_8_persistence(tmp_path):
    # dataset and checkpoint round-trips, byte-identical
    config = RunConfig(master_seed=MASTER_SEED)
    manifest = config.dataset_manifest()
    save_dataset(tmp_path / "d1", manifest, generate_dataset(manifest))
    m2, ds2 = load_dataset(tmp_path / "d1")
    save_dataset(tmp_path / "d2", m2, ds2)
    names = ("manifest.txt", "audio.tmd", "image.tmd", "text.tmd", "ids.tmd",
             "intensity.tmd")
    ok = all(filecmp.cmp(tmp_path / "d1" / n, tmp_path / "d2" / n,
                         shallow=False) for n in names)
    # full pipeline twice under the master seed: every emitted number equal
    fast = ["--set", "teacher_epochs=3", "--set", "audio_epochs=3",
            "--set", "gen_fit_epochs=2", "--set", "manip_steps=10"]
    for run in (tmp_path / "p1", tmp_path / "p2"):
        for cmd in (["gen-data"], ["pretrain-teacher"], ["fit-generator"],
                    ["train-audio"],
                    ["manipulate", "--source-index", "96",
                     "--audio-index", "144"],
                    ["eval-zeroshot"]):
            assert cli_main([*fast, *cmd, "--run", str(run)]) == 0
    artifacts = ("teacher.ckpt", "teacher_loss.csv", "generator.ckpt",
                 "audio.ckpt", "audio_loss.csv",
                 "manip/latest/trajectory.csv", "manip/latest/latent.ckpt",
                 "manip/latest/after.pgm", "reports/zeroshot.csv",
                 "dataset/audio.tmd")
    ok &= all(filecmp.cmp(tmp_path / "p1" / a, tmp_path / "p2" / a,
                          shallow=False) for a in artifacts)
    _verdict(8, ok, "dataset/checkpoint round-trips and full-pipeline rerun "
                    "byte-identical")


def test_criterion_9_direction_statistics_soft(direction_report):
    ok, msg = soft_direction_check(direction_report)
    print(f"[criterion 9] {'PASS' if ok else 'SOFT-FAIL'} (soft): {msg}")
    if not ok:
        print("[criterion 9] diagnostic: the ordering is environment and "
              "seed sensitive by design; reported, not failed")
    assert "cos_sa_mean" in direction_report.extras
    assert "cos_st_mean" in direction_report.extras
