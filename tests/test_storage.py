import ast
import errno
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgim.config
from sgim import checkpoint as ckpt
from sgim.config import (RunConfig, config_from_text, config_hash,
                         config_to_text, load_config, stage_seed)
from sgim.data import DatasetManifest, manifest_from_text, manifest_to_text
from sgim.encoders import TeacherParams, init_encoder_params
from sgim.errors import ConfigError, UsageError
from sgim.generator import GeneratorFit, init_generator
from sgim.pgm import write_pgm

from conftest import read_pgm


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {"a": rng.standard_normal((3, 4)),
              "b.nested": rng.standard_normal(7),
              "scalarish": np.array(3.25)}
    path = tmp_path / "x.ckpt"
    ckpt.save_checkpoint(path, arrays, "master_seed=9\n", 9)
    loaded, text, seed = ckpt.load_checkpoint(path)
    assert seed == 9
    assert text == "master_seed=9\n"
    assert set(loaded) == set(arrays)
    for k in arrays:
        assert loaded[k].tobytes() == np.ascontiguousarray(arrays[k]).tobytes()
        assert loaded[k].shape == arrays[k].shape
    # a second save of the loaded state is byte-identical
    path2 = tmp_path / "y.ckpt"
    ckpt.save_checkpoint(path2, loaded, text, seed)
    assert path.read_bytes() == path2.read_bytes()


def _half_write(self, data):
    # a disk that fills up halfway through the write
    with open(self, "wb") as fh:
        fh.write(data[:len(data) // 2])
    raise OSError(errno.ENOSPC, "No space left on device")


def _refuse_replace(src, dst):
    raise OSError(errno.EXDEV, "Invalid cross-device link")


@pytest.mark.parametrize("target, fault", [
    ("pathlib.Path.write_bytes", _half_write),
    ("os.replace", _refuse_replace)], ids=["half_write", "replace"])
def test_failed_checkpoint_write_keeps_the_old_file(target, fault, tmp_path,
                                                     monkeypatch):
    path = tmp_path / "x.ckpt"
    ckpt.save_checkpoint(path, {"a": np.arange(6.0)}, "master_seed=1\n", 1)
    before = path.read_bytes()
    monkeypatch.setattr(target, fault)
    with pytest.raises(OSError):
        ckpt.save_checkpoint(path, {"a": np.ones((64, 64))},
                             "master_seed=2\n", 2)
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["x.ckpt"]


def test_checkpoint_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOTSGIM" + b"\x00" * 32)
    with pytest.raises(UsageError):
        ckpt.load_checkpoint(p)


def test_encoder_and_teacher_array_roundtrip():
    rng = np.random.default_rng(1)
    enc = init_encoder_params(rng, 10, 6, 4)
    back = ckpt.encoder_from_arrays("e", ckpt.encoder_arrays("e", enc))
    for k, v in enc.arrays().items():
        assert np.array_equal(getattr(back, k), v)
    teacher = TeacherParams(text=init_encoder_params(rng, 5, 6, 4),
                            image=init_encoder_params(rng, 8, 6, 4))
    back_t = ckpt.teacher_from_arrays(ckpt.teacher_arrays(teacher))
    assert back_t.text.frozen and back_t.image.frozen
    assert np.array_equal(back_t.image.w2, teacher.image.w2)


def test_generator_array_roundtrip():
    rng = np.random.default_rng(2)
    gen = init_generator(rng, side=4, latent_dim=6)
    fit = GeneratorFit(gen, rng.standard_normal((5, 4, 6)))
    back = ckpt.generator_from_arrays(ckpt.generator_arrays(fit))
    assert back.params.side == 4 and back.params.latent_dim == 6
    assert np.array_equal(back.latents, fit.latents)
    for a, b in zip(back.params.layer_mods, gen.layer_mods):
        assert np.array_equal(a, b)


def test_latent_roundtrip():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((8, 32))
    gate = rng.standard_normal(8)
    back_w, back_gate = ckpt.latent_from_arrays(ckpt.latent_arrays(w, gate))
    assert np.array_equal(back_w, w) and np.array_equal(back_gate, gate)


def test_pgm_roundtrip(tmp_path):
    img = np.random.default_rng(4).standard_normal((8, 8))
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    pix = read_pgm(path)
    assert pix.shape == (8, 8)
    assert pix.min() == 0 and pix.max() == 255
    # ordering preserved under the monotone rescale
    flat_in = img.reshape(-1)
    flat_out = pix.reshape(-1)
    assert flat_out[np.argmax(flat_in)] == 255
    assert flat_out[np.argmin(flat_in)] == 0


def test_pgm_constant_image(tmp_path):
    path = tmp_path / "flat.pgm"
    write_pgm(path, np.full((4, 4), 3.0))
    assert np.all(read_pgm(path) == 0)


def test_pgm_rejects_non_square_flat(tmp_path):
    with pytest.raises(UsageError):
        write_pgm(tmp_path / "x.pgm", np.ones(15))


def test_config_text_roundtrip():
    cfg = RunConfig(master_seed=13, lambda_reg=0.002, use_loss_kl=False,
                    bias_spec={2: 1, 5: 0})
    back = config_from_text(config_to_text(cfg))
    assert back == cfg
    assert config_hash(back) == config_hash(cfg)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        config_from_text("master_seed=3\nbanana=1\nlambda_reg=zebra\n")
    assert "banana" in str(err.value)
    assert "lambda_reg" in str(err.value)


def test_config_bool_and_bias_parsing():
    cfg = config_from_text("use_loss_kl=false\nadaptive_masking=1\n"
                           "bias_spec=1:0,3:2\n")
    assert cfg.use_loss_kl is False
    assert cfg.adaptive_masking is True
    assert cfg.bias_spec == {1: 0, 3: 2}


def test_load_config_overrides(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("master_seed=5\ntau=0.1\n")
    cfg = load_config(path, ["tau=0.2", "audio_epochs=3"])
    assert cfg.master_seed == 5
    assert cfg.tau == 0.2
    assert cfg.audio_epochs == 3
    with pytest.raises(ConfigError):
        load_config(path, ["notakey=1"])
    with pytest.raises(ConfigError):
        load_config(path, ["justakey"])


def test_stage_seed_offsets_distinct():
    seeds = {stage: stage_seed(7, stage)
             for stage in ("data", "teacher", "audio", "generator", "manip",
                           "eval")}
    assert len(set(seeds.values())) == len(seeds)
    assert seeds["data"] == 108


def test_manifest_from_config_carries_stage_seed():
    cfg = RunConfig(master_seed=21)
    assert cfg.dataset_manifest().seed == stage_seed(21, "data")


def _field_values(cls):
    def values(default):
        if isinstance(default, bool):
            return st.booleans()
        if isinstance(default, int):
            return st.integers()
        if isinstance(default, float):
            return st.floats(allow_nan=False)
        return st.dictionaries(st.integers(), st.integers())
    defaults = cls()
    return st.fixed_dictionaries({f.name: values(getattr(defaults, f.name))
                                  for f in fields(cls)})


@settings(max_examples=50, deadline=None)
@given(_field_values(RunConfig), _field_values(DatasetManifest))
def test_every_field_survives_its_text_form(config_values, manifest_values):
    cfg = RunConfig(**config_values)
    assert config_from_text(config_to_text(cfg)) == cfg
    manifest = DatasetManifest(**manifest_values)
    assert manifest_from_text(manifest_to_text(manifest)) == manifest


_MALFORMED = {bool: "maybe", int: "1.5", float: "zebra", dict: "1:x"}
_TYPED_KEYS = [(label, parse, f.name, type(getattr(cls(), f.name)))
               for label, parse, cls in (
                   ("config", config_from_text, RunConfig),
                   ("manifest", manifest_from_text, DatasetManifest))
               for f in fields(cls)]


@pytest.mark.parametrize("label,parse,key,kind", _TYPED_KEYS,
                         ids=[f"{t[0]}-{t[2]}" for t in _TYPED_KEYS])
def test_malformed_value_names_its_key(label, parse, key, kind):
    with pytest.raises(ConfigError) as err:
        parse(f"{key}={_MALFORMED[kind]}\n")
    assert str(err.value) == f"{label}: invalid entries: {key}"


def test_default_manifest_text_pinned():
    assert manifest_to_text(RunConfig().dataset_manifest()) == (
        "classes=8\nvideos_per_class=6\nrecords_per_video=8\nfreq_bins=20\n"
        "time_frames=10\npixels=64\nseed=108\nbias_cooccurrence=0.8\n"
        "audio_video_offset=0.7\nimage_video_offset=0.7\naudio_noise=0.005\n"
        "image_noise=0.01\nnuisance_scale=0.5\nintensity_min=0.2\n"
        "intensity_max=1.0\nbias_spec=0:0,1:0\n")


def test_config_imports_no_stage_module():
    # every stage reads RunConfig, so the dependency runs one way
    tree = ast.parse(Path(sgim.config.__file__).read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert not imported & {"encoders", "losses", "manipulate", "evaluate",
                           "gradcheck", "cli"}
