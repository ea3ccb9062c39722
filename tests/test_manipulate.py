from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgim import autodiff as ad
from sgim.augment import bag_matrix
from sgim.config import RunConfig
from sgim.data import label_tokens
from sgim.encoders import encode_np
from sgim.errors import (DegenerateInputError, DimensionError,
                         NumericsError, ParameterError, SgimError)
from sgim.generator import sample_source_latent, synthesize
from sgim.losses import softmax
from sgim.manipulate import (IdentityExtractor, bind_step, interpolate,
                             optimize_guided, style_mix, trajectory_csv)

from conftest import AUDIO_INDEX, SOURCE_INDEX
from graph_reference import (finite_difference_check,
                             graph_objective_and_grad, graph_optimize_guided,
                             hinge_from_distances, hinge_loss,
                             identity_features, identity_loss,
                             masked_regularization, max_rel_error_loop,
                             moving_average, objective_and_grad,
                             objective_node)


def audio_target(dataset, model_bundle, index=AUDIO_INDEX):
    """The guidance embedding of one audio record, as a B = 1 target stack."""
    return encode_np(model_bundle.audio, dataset.audio[index].reshape(1, -1))


@pytest.fixture(scope="module")
def manip_run(gen_fit, model_bundle, dataset):
    w_s = gen_fit.latents[SOURCE_INDEX]
    w_a, gate, trajectory = optimize_guided(
        w_s[None], audio_target(dataset, model_bundle), RunConfig(),
        model_bundle)
    return w_s, w_a[0], gate[0], trajectory


def test_hinge_hand_values(gen_fit, model_bundle):
    # ties give exactly 1; a full margin closer gives 0; farther gives 2
    assert hinge_from_distances(1.0, 0.0) == 0.0
    assert hinge_from_distances(0.4, 1.4) == 2.0
    w_s = gen_fit.latents[SOURCE_INDEX]
    a = np.zeros(32)
    a[0] = 1.0
    assert hinge_loss(w_s, w_s, a, model_bundle.generator,
                      model_bundle.image) == 1.0


def test_masked_regularization_hand_value():
    w_s = np.zeros((8, 4))
    w_a = np.zeros((8, 4))
    w_a[2, 0] = 1.0  # single layer differs by unit norm
    val = masked_regularization(w_a, w_s, np.zeros(8))
    assert val == pytest.approx(1.0 / 64.0, abs=1e-15)
    assert masked_regularization(w_s, w_s, np.zeros(8)) == 0.0


def test_masked_regularization_gate_concentration():
    w_s = np.zeros((8, 4))
    w_a = np.zeros((8, 4))
    w_a[0, 1] = 2.0
    logits = np.zeros(8)
    logits[0] = 1e3  # softmax mass collapses onto layer 0
    val = masked_regularization(w_a, w_s, logits)
    assert val == pytest.approx(2.0 / 8.0, rel=1e-12)


def test_identity_loss_bounds_and_zero(gen_fit, model_bundle):
    w_s = gen_fit.latents[3]
    assert identity_loss(w_s, w_s, model_bundle.generator,
                         model_bundle.identity) == pytest.approx(0.0, abs=1e-12)
    w_other = gen_fit.latents[200]
    val = identity_loss(w_s, w_other, model_bundle.generator,
                        model_bundle.identity)
    assert 0.0 <= val <= 2.0


def test_optimize_rejects_bad_steps(gen_fit, model_bundle, dataset):
    with pytest.raises(ParameterError):
        optimize_guided(gen_fit.latents[:1],
                        audio_target(dataset, model_bundle, 0),
                        RunConfig(manip_steps=0), model_bundle)


def test_huge_step_aborts_loudly(gen_fit, model_bundle, dataset):
    # tanh and row normalization keep embeddings finite, so the blowup
    # surfaces in the drift norms once the latent overflows float64
    with np.errstate(over="ignore"), pytest.raises(SgimError):
        optimize_guided(gen_fit.latents[:1],
                        audio_target(dataset, model_bundle, 0),
                        RunConfig(manip_steps=8, manip_step_size=1e300),
                        model_bundle)


def test_canonical_run_drives_hinge_below_one(manip_run):
    _, _, _, trajectory = manip_run
    hinges = trajectory.hinge[:, 0]
    assert hinges[0] == 1.0
    assert min(hinges) < 1.0
    assert hinges[-1] < 1.0


def test_objective_moving_average_non_increasing(manip_run):
    _, _, _, trajectory = manip_run
    ma = moving_average(trajectory.total[:, 0], 20)
    assert np.all(np.diff(ma) <= 1e-12)


def test_gate_softmax_sums_to_one_every_step(manip_run):
    _, _, _, trajectory = manip_run
    assert trajectory.gate_softmax.shape == (300, 1, 8)
    assert np.all(np.abs(trajectory.gate_softmax.sum(axis=-1) - 1.0) < 1e-12)
    assert np.all(trajectory.gate_softmax > 0.0)


def test_gate_mass_moves_to_static_fine_layers(gen_fit, model_bundle, dataset):
    # class image templates are coarse-band dominant, so the edit leaves the
    # fine layers nearly untouched and the minimized penalty concentrates
    # its softmax mass there; amplified lambda_reg makes the effect visible
    w_s = gen_fit.latents[SOURCE_INDEX]
    config = RunConfig(lambda_reg=1.0)
    w_a, gate, _ = optimize_guided(
        w_s[None], audio_target(dataset, model_bundle), config, model_bundle)
    weights = softmax(gate[0])
    drift = np.linalg.norm(w_a[0] - w_s, axis=1)
    assert drift[4:].mean() < drift[:4].mean()
    assert weights[4:].sum() > 0.5


def test_identity_lambda_ordering(gen_fit, model_bundle, dataset):
    w_s = gen_fit.latents[SOURCE_INDEX]
    target = audio_target(dataset, model_bundle)

    def identity_cos(lambda_id):
        w_a, _, _ = optimize_guided(w_s[None], target,
                                    RunConfig(lambda_id=lambda_id),
                                    model_bundle)
        f_s = identity_features(model_bundle.identity,
                                synthesize(w_s, model_bundle.generator))
        f_a = identity_features(model_bundle.identity,
                                synthesize(w_a[0], model_bundle.generator))
        return float(f_s @ f_a)

    assert identity_cos(0.5) > identity_cos(0.0)


def test_objective_gradient_matches_fd(gen_fit, model_bundle, dataset):
    # the graph of a one-row stack: finite differences need no product rule
    w_s = gen_fit.latents[SOURCE_INDEX:SOURCE_INDEX + 1]
    targets = np.random.default_rng(3).standard_normal((1, 32))
    targets /= np.linalg.norm(targets)
    config = RunConfig()
    v_src = encode_np(model_bundle.image, synthesize(w_s, model_bundle.generator))
    d_src = 1.0 - (v_src * targets).sum(axis=1, keepdims=True)
    src_id = identity_features(model_bundle.identity,
                               synthesize(w_s[0], model_bundle.generator))[None]
    g = np.random.default_rng(4).standard_normal((1, 8))

    def f(w):
        return objective_node(w, ad.constant(g), w_s, targets, d_src, config,
                              model_bundle, src_id)[0]

    start = w_s + 0.05 * np.random.default_rng(5).standard_normal(w_s.shape)
    assert finite_difference_check(f, start) < 1e-4


# name -> settings; each runs the graph loop and optimize_guided side by
# side, and a batch against its rows one at a time
GRAPH_CASES = {
    "default": {},
    "no_identity": {"lambda_id": 0.0, "lambda_reg": 1.0},
    "lambda_id_zero": {"lambda_id": 0.0},
    "strong_reg": {"lambda_reg": 1.0},
}


def test_one_zero_size_step_keeps_source(gen_fit, model_bundle, dataset):
    # the source terms come from the objective's own forward expressions,
    # so step 0 compares the source with itself exactly
    target = audio_target(dataset, model_bundle)
    sources = [gen_fit.latents[SOURCE_INDEX],
               *(sample_source_latent(seed, gen_fit.params)
                 for seed in range(3))]
    for case, settings_ in GRAPH_CASES.items():
        config = RunConfig(manip_steps=1, manip_step_size=0.0, **settings_)
        for w_s in sources:
            w_a, _, traj = optimize_guided(w_s[None], target, config,
                                           model_bundle)
            assert np.array_equal(w_a[0], w_s)
            assert (traj.hinge[0, 0], traj.reg[0, 0]) == (1.0, 0.0), case
            assert traj.identity[0, 0] == 0.0, case


@pytest.mark.parametrize("case", sorted(GRAPH_CASES))
def test_numpy_step_matches_graph_loop_bit_exact(case, gen_fit, model_bundle,
                                                  dataset):
    # B = 1, which both run as two copies of the row, and a batch of three
    sources = np.stack([gen_fit.latents[SOURCE_INDEX], gen_fit.latents[10],
                        sample_source_latent(0, gen_fit.params)])
    targets = encode_np(model_bundle.audio,
                        dataset.audio[[AUDIO_INDEX, 0, 200]].reshape(3, -1))
    config = RunConfig(manip_steps=60, **GRAPH_CASES[case])
    for rows in (slice(0, 1), slice(None)):
        w_ref, g_ref, traj_ref = graph_optimize_guided(
            sources[rows], targets[rows], config, model_bundle)
        w, g, traj = optimize_guided(sources[rows], targets[rows], config,
                                     model_bundle)
        assert w.tobytes() == w_ref.tobytes()
        assert g.tobytes() == g_ref.tobytes()
        assert traj.hinge.shape == traj_ref.hinge.shape == (60, len(w))
        for name in TRAJECTORY_FIELDS:
            assert getattr(traj, name).tobytes() == \
                getattr(traj_ref, name).tobytes(), name


TRAJECTORY_FIELDS = ("hinge", "reg", "identity", "total", "gate_logits",
                     "gate_softmax")

BATCH_SIZES = (1, 2, 3, 4, 7, 96)
# the rows compared with their single runs: all of the small batches, and
# every fifth row and the last of the largest
CHECKED_ROWS = sorted({*range(7), *range(0, 96, 5), 95})


@pytest.fixture(scope="module")
def batch_pool(gen_fit, model_bundle, dataset):
    """96 sources, each with its own target: fitted and random latents,
    audio- and text-guided."""
    sources = np.concatenate([
        gen_fit.latents[[SOURCE_INDEX, 10, 200]],
        np.stack([sample_source_latent(seed, gen_fit.params)
                  for seed in range(93)])])
    records = (AUDIO_INDEX + 37 * np.arange(96)) % len(dataset)
    targets = encode_np(model_bundle.audio,
                        dataset.audio[records].reshape(96, -1))
    for k in range(2, 96, 3):
        targets[k] = encode_np(model_bundle.text,
                               bag_matrix([label_tokens(k % 8)]))[0]
    return sources, targets


@pytest.mark.parametrize("case", sorted(GRAPH_CASES))
def test_batch_rows_match_single_runs_bit_exact(case, batch_pool,
                                                model_bundle):
    sources, targets = batch_pool
    config = RunConfig(manip_steps=60, **GRAPH_CASES[case])
    singles = {i: optimize_guided(sources[i:i + 1], targets[i:i + 1], config,
                                  model_bundle) for i in CHECKED_ROWS}
    for size in BATCH_SIZES:
        w, g, traj = optimize_guided(sources[:size], targets[:size], config,
                                     model_bundle)
        assert w.shape == (size, 8, 32) and g.shape == (size, 8)
        assert traj.hinge.shape == (60, size)
        assert traj.gate_softmax.shape == (60, size, 8)
        for i in (i for i in CHECKED_ROWS if i < size):
            w1, g1, traj1 = singles[i]
            assert w[i].tobytes() == w1[0].tobytes(), (size, i)
            assert g[i].tobytes() == g1[0].tobytes(), (size, i)
            for name in TRAJECTORY_FIELDS:
                assert getattr(traj, name)[:, i].tobytes() == \
                    getattr(traj1, name)[:, 0].tobytes(), (size, i, name)


@pytest.mark.parametrize("case", sorted(GRAPH_CASES))
def test_objective_and_grad_matches_graph_at_edges(case, gen_fit,
                                                   model_bundle):
    # an inactive hinge (d_src = 5) and zero drift (w = w_s) are the points
    # where signed zeros and the zero-norm subgradients show
    w_s = gen_fit.latents[SOURCE_INDEX]
    config = RunConfig(**GRAPH_CASES[case])
    rng = np.random.default_rng(21)
    target = rng.standard_normal(32)
    target /= np.linalg.norm(target)
    src_id = rng.standard_normal(16)
    src_id /= np.linalg.norm(src_id)
    for d_src in (5.0, 0.3):
        for w in (w_s.copy(), w_s + 0.1 * rng.standard_normal(w_s.shape)):
            g = rng.standard_normal(8)
            args = (w[None], g[None], w_s[None], target[None],
                    np.full((1, 1), d_src), config, model_bundle,
                    src_id[None])
            got, want = objective_and_grad(*args), graph_objective_and_grad(*args)
            for name, x, y in zip(("total", "hinge", "reg", "identity",
                                   "grad_w", "grad_g"), got, want):
                assert x.tobytes() == y.tobytes(), name


def objective_one(w, g, w_s, target, d_src, config, models, src_id):
    """objective_and_grad at B = 1 on unstacked arguments, with the values
    as floats and the gradients unstacked."""
    out = objective_and_grad(w[None], g[None], w_s[None], target[None],
                             np.full((1, 1), d_src), config, models,
                             src_id[None])
    return (*(float(x[0]) for x in out[:4]), out[4][0], out[5][0])


def _objective_at(gen_fit, model_bundle, config):
    """(w -> objective, g -> objective, drifted start, gate) at the canonical
    source and a seeded unit target."""
    w_s = gen_fit.latents[SOURCE_INDEX]
    gen = model_bundle.generator
    target = np.random.default_rng(3).standard_normal(32)
    target /= np.linalg.norm(target)
    d_src = 1.0 - float(encode_np(model_bundle.image,
                                  synthesize(w_s, gen)[None, :])[0] @ target)
    src_id = identity_features(model_bundle.identity, synthesize(w_s, gen))
    start = w_s + 0.05 * np.random.default_rng(5).standard_normal(w_s.shape)
    gate = np.random.default_rng(4).standard_normal(8)

    def at_w(w):
        return objective_one(w, gate, w_s, target, d_src, config,
                             model_bundle, src_id)

    def at_g(g):
        return objective_one(start, g, w_s, target, d_src, config,
                             model_bundle, src_id)

    return at_w, at_g, start, gate


@pytest.mark.parametrize("identity", [True, False])
def test_objective_and_grad_matches_fd(identity, gen_fit, model_bundle):
    # without the identity term: the step direction-stats and the leakage
    # probe run
    config = RunConfig() if identity else RunConfig(lambda_id=0.0)
    at_w, at_g, start, gate = _objective_at(gen_fit, model_bundle, config)
    assert max_rel_error_loop(at_w(start)[4], lambda w: at_w(w)[0],
                              start) < 1e-4
    grad_g = at_g(gate)[5]
    assert np.any(grad_g != 0.0)
    assert max_rel_error_loop(grad_g, lambda g: at_g(g)[0], gate) < 1e-4


def test_objective_and_grad_rejects_zero_norm_rows(gen_fit, model_bundle):
    at_w, _, start, _ = _objective_at(gen_fit, model_bundle, RunConfig())
    dead_image = replace(model_bundle.image,
                         w3=np.zeros_like(model_bundle.image.w3),
                         b3=np.zeros_like(model_bundle.image.b3))
    dead_identity = IdentityExtractor(model_bundle.identity.w1,
                                      np.zeros_like(model_bundle.identity.w2))
    for models in (replace(model_bundle, image=dead_image),
                   replace(model_bundle, identity=dead_identity)):
        with pytest.raises(DegenerateInputError):
            objective_one(start, np.zeros(8), gen_fit.latents[SOURCE_INDEX],
                          np.eye(32)[0], 0.5, RunConfig(), models,
                          np.eye(16)[0])


@pytest.mark.parametrize("field,value", [
    ("step_size", float("nan")), ("step_size", float("inf")),
    ("step_size", -0.1), ("lambda_reg", float("nan")), ("lambda_reg", -5.0),
    ("lambda_id", float("inf")), ("lambda_id", -1e-3)])
def test_optimize_rejects_bad_settings(field, value, gen_fit, model_bundle,
                                       dataset):
    # step_size names the manip_step_size key
    key = "manip_step_size" if field == "step_size" else field
    with pytest.raises(ParameterError, match=key):
        optimize_guided(gen_fit.latents[:1],
                        audio_target(dataset, model_bundle, 0),
                        RunConfig(**{key: value}), model_bundle)


def test_optimize_rejects_non_finite_inputs(gen_fit, model_bundle):
    w_s = gen_fit.latents[SOURCE_INDEX:SOURCE_INDEX + 1]
    target = np.eye(32)[:1]
    with pytest.raises(DegenerateInputError):
        optimize_guided(w_s, np.full((1, 32), np.nan),
                        RunConfig(manip_steps=1), model_bundle)
    bad = w_s.copy()
    bad[0, 0, 0] = np.inf
    with pytest.raises(DegenerateInputError):
        optimize_guided(bad, target, RunConfig(manip_steps=1), model_bundle)
    # in a batch, the error names the row
    targets = np.eye(32)[:4].copy()
    targets[2, 5] = np.nan
    with pytest.raises(DegenerateInputError, match="in row 2$"):
        optimize_guided(gen_fit.latents[:4], targets, RunConfig(manip_steps=1),
                        model_bundle)


def test_optimize_rejects_mismatched_stacks(gen_fit, model_bundle):
    # a single latent, or targets that do not pair with the latents one to
    # one, are shape errors, not broadcasts
    targets = np.eye(32)[:2]
    for w_s, t in ((gen_fit.latents[0], targets[0]),
                   (gen_fit.latents[:2], targets[:1]),
                   (gen_fit.latents[:2], np.eye(16)[:2])):
        with pytest.raises(DimensionError):
            optimize_guided(w_s, t, RunConfig(manip_steps=1), model_bundle)


def test_bind_step_rejects_one_row(gen_fit, model_bundle):
    # a one-row product rounds differently, so the step has no B = 1 path:
    # its callers run a single latent as two copies of its row
    with pytest.raises(DimensionError, match="two or more rows"):
        bind_step(gen_fit.latents[:1], np.eye(32)[:1], RunConfig(),
                  model_bundle)
    bind_step(gen_fit.latents[:2], np.eye(32)[:2], RunConfig(), model_bundle)


def test_objective_and_grad_rejects_unpaired_latents(gen_fit, model_bundle):
    # the step's shapes come from the sources, so latents of another batch
    # size are a shape error, not a broadcast
    with pytest.raises(DimensionError):
        objective_and_grad(gen_fit.latents[:2], np.zeros((2, 8)),
                           gen_fit.latents[:1], np.eye(32)[:1],
                           np.zeros((1, 1)), RunConfig(), model_bundle,
                           np.eye(16)[:1])


def test_diverging_row_is_named(gen_fit, model_bundle):
    # rows 0 and 2 are scaled until the image encoder saturates, so their
    # gradient is zero and a huge step leaves them in place; row 1 diverges
    w_s = gen_fit.latents[:3].copy()
    w_s[[0, 2]] *= 1e300
    with np.errstate(over="ignore"), \
            pytest.raises(NumericsError, match="in row 1 at step 1:"):
        optimize_guided(w_s, np.eye(32)[:3],
                        RunConfig(manip_steps=8, manip_step_size=1e300),
                        model_bundle)


def test_optimizer_deterministic(gen_fit, model_bundle):
    w_s = gen_fit.latents[10]
    target = np.random.default_rng(6).standard_normal(32)
    target /= np.linalg.norm(target)
    config = RunConfig(manip_steps=25)
    a1, g1, _ = optimize_guided(w_s[None], target[None], config, model_bundle)
    a2, g2, _ = optimize_guided(w_s[None], target[None], config, model_bundle)
    assert np.array_equal(a1, a2)
    assert np.array_equal(g1, g2)


def test_text_guided_runs_and_is_finite(gen_fit, model_bundle):
    w_s = gen_fit.latents[SOURCE_INDEX]
    target = encode_np(model_bundle.text, bag_matrix([label_tokens(3)]))
    w_t, _, traj = optimize_guided(w_s[None], target,
                                   RunConfig(manip_steps=50), model_bundle)
    assert np.all(np.isfinite(w_t))
    assert traj.hinge[-1, 0] < 1.0


def test_interpolate_endpoints_bit_exact():
    rng = np.random.default_rng(1)
    w_a, w_t = rng.standard_normal((2, 8, 32))
    assert interpolate(w_a, w_t, 0.0).tobytes() == w_a.tobytes()
    assert interpolate(w_a, w_t, 1.0).tobytes() == w_t.tobytes()


def test_interpolate_midpoint_and_affine_identity():
    w_a = np.zeros((2, 3))
    w_t = 2.0 * np.ones((2, 3))
    assert np.array_equal(interpolate(w_a, w_t, 0.5), np.ones((2, 3)))
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal((2, 8, 32))
    lhs = interpolate(x, y, 0.5) + interpolate(x, y, 0.5)
    assert np.array_equal(lhs, x + y)


@settings(max_examples=40)
@given(st.floats(0.0, 1.0))
def test_interpolate_affine_identity_property(alpha):
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal((2, 4, 6))
    lhs = interpolate(x, y, alpha) + interpolate(x, y, 1.0 - alpha)
    assert np.allclose(lhs, x + y, atol=1e-12)


def test_interpolate_rejects_out_of_range():
    w = np.zeros((2, 2))
    with pytest.raises(ParameterError):
        interpolate(w, w, -0.1)
    with pytest.raises(ParameterError):
        interpolate(w, w, 1.5)


def test_style_mix_provenance():
    rng = np.random.default_rng(4)
    w_a, w_t = rng.standard_normal((2, 8, 32))
    mixed = style_mix(w_a, w_t, 4)
    assert mixed[:4].tobytes() == w_a[:4].tobytes()
    assert mixed[4:].tobytes() == w_t[4:].tobytes()
    assert np.array_equal(style_mix(w_a, w_a, 3), w_a)


def test_style_mix_split_range():
    w = np.zeros((8, 4))
    with pytest.raises(ParameterError):
        style_mix(w, w, 0)
    with pytest.raises(ParameterError):
        style_mix(w, w, 8)


def test_trajectory_csv(manip_run):
    _, _, _, trajectory = manip_run
    csv = trajectory_csv(trajectory)
    lines = csv.strip().splitlines()
    assert lines[0] == "step,hinge,reg,id,total"
    assert len(lines) == len(trajectory.hinge) + 1
    cols = lines[1].split(",")
    assert float(cols[1]) == trajectory.hinge[0, 0]
