"""Session-scoped canonical pipeline shared by the trained-model tests.

Everything derives from one master seed through the same stage offsets the
CLI uses, so numbers pinned here match `sgim` runs with --seed 7.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from sgim.config import RunConfig
from sgim.data import generate_dataset, split_by_video
from sgim.errors import UsageError
from sgim.encoders import pretrain_teacher, train_audio_encoder
from sgim.generator import fit_generator_to_dataset
from sgim.manipulate import ModelBundle, init_identity_extractor

MASTER_SEED = 7

# canonical desk manipulation task: source image from class 2 (record 96),
# audio guidance from class 3 (record 144); both classes are nuisance-free
SOURCE_INDEX = 96
AUDIO_INDEX = 144


@pytest.fixture(scope="session")
def run_config():
    return RunConfig(master_seed=MASTER_SEED)


@pytest.fixture(scope="session")
def manifest(run_config):
    return run_config.dataset_manifest()


@pytest.fixture(scope="session")
def dataset(manifest):
    return generate_dataset(manifest)


@pytest.fixture(scope="session")
def splits(dataset, manifest):
    return split_by_video(dataset, manifest)


@pytest.fixture(scope="session")
def teacher(splits, run_config):
    train, _ = splits
    params, log = pretrain_teacher(train, run_config)
    return params, log


@pytest.fixture(scope="session")
def audio_encoder(splits, teacher, run_config):
    train, _ = splits
    params, log = train_audio_encoder(train, teacher[0], run_config)
    return params, log


@pytest.fixture(scope="session")
def gen_fit(dataset, run_config):
    return fit_generator_to_dataset(dataset.image,
                                    epochs=run_config.gen_fit_epochs,
                                    seed=run_config.seed_for("generator"),
                                    latent_dim=run_config.latent_dim)


@pytest.fixture(scope="session")
def model_bundle(gen_fit, teacher, audio_encoder, run_config):
    identity = init_identity_extractor(
        np.random.default_rng(run_config.seed_for("manip")),
        pixels=gen_fit.params.bias.size)
    return ModelBundle(generator=gen_fit.params, audio=audio_encoder[0],
                       text=teacher[0].text, image=teacher[0].image,
                       identity=identity)


@pytest.fixture(scope="session")
def ablation_report(dataset, manifest, teacher, model_bundle, run_config):
    """The weak-loss ablation report, and the seconds its run took."""
    from sgim.evaluate import ablate_weak_loss
    start = time.monotonic()
    report = ablate_weak_loss(dataset, manifest, teacher[0], model_bundle,
                              run_config)
    return report, time.monotonic() - start


@pytest.fixture(scope="session")
def direction_report(dataset, model_bundle, run_config):
    from sgim.evaluate import direction_stats
    return direction_stats([3, 5], 10, dataset, model_bundle, run_config)


def read_pgm(path) -> np.ndarray:
    """The pixels of a P2 graymap, as `sgim.pgm.write_pgm` writes it."""
    tokens: list[str] = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if not tokens or tokens[0] != "P2":
        raise UsageError(f"{path}: not a P2 graymap")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    values = np.array([int(t) for t in tokens[4:]])
    if values.size != width * height:
        raise UsageError(f"{path}: pixel count mismatch")
    if values.min() < 0 or values.max() > maxval:
        raise UsageError(f"{path}: pixel outside [0, {maxval}]")
    return values.reshape(height, width)
