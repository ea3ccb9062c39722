"""Session-scoped canonical pipeline shared by the trained-model tests.

Everything derives from one master seed through the same stage offsets the
CLI uses, so numbers pinned here match `sgim` runs with --seed 7.
"""

import numpy as np
import pytest

from sgim.config import RunConfig
from sgim.data import generate_dataset, split_by_video
from sgim.encoders import pretrain_teacher, train_audio_encoder
from sgim.generator import fit_generator_to_dataset
from sgim.losses import LossFlags
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
    params, log = pretrain_teacher(train, run_config.teacher_train_config())
    return params, log


@pytest.fixture(scope="session")
def audio_encoder(splits, teacher, run_config):
    train, _ = splits
    params, log = train_audio_encoder(train, teacher[0],
                                      run_config.audio_train_config())
    return params, log


@pytest.fixture(scope="session")
def audio_encoder_no_kl(splits, teacher, run_config):
    train, _ = splits
    cfg = run_config.audio_train_config()
    cfg.flags = LossFlags(use_kl=False)
    params, log = train_audio_encoder(train, teacher[0], cfg)
    return params, log


@pytest.fixture(scope="session")
def gen_fit(dataset, run_config):
    return fit_generator_to_dataset(dataset.image,
                                    epochs=run_config.gen_fit_epochs,
                                    seed=run_config.seed_for("generator"))


@pytest.fixture(scope="session")
def model_bundle(gen_fit, teacher, audio_encoder, run_config):
    identity = init_identity_extractor(
        np.random.default_rng(run_config.seed_for("manip")))
    return ModelBundle(generator=gen_fit.params, audio=audio_encoder[0],
                       text=teacher[0].text, image=teacher[0].image,
                       identity=identity)


@pytest.fixture(scope="session")
def ablation_report(dataset, manifest, teacher, model_bundle, run_config):
    from sgim.evaluate import ablate_weak_loss
    return ablate_weak_loss(dataset, manifest, teacher[0], model_bundle,
                            run_config)


@pytest.fixture(scope="session")
def direction_report(dataset, model_bundle, run_config):
    from sgim.evaluate import direction_stats
    return direction_stats([3, 5], 10, dataset, model_bundle, run_config)
