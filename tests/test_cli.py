import filecmp
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from sgim import checkpoint, cli, evaluate
from sgim.checkpoint import load_checkpoint
from sgim.cli import main
from sgim.config import RunConfig, config_from_text, config_to_text

from conftest import read_pgm

# reduced budgets: CLI plumbing is under test here, model quality is not
FAST = ["--set", "teacher_epochs=2", "--set", "audio_epochs=2",
        "--set", "gen_fit_epochs=1", "--set", "manip_steps=5",
        "--set", "probe_epochs=5", "--set", "direction_seeds=2"]


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    run = tmp_path_factory.mktemp("clirun") / "run"
    for cmd in (["gen-data"], ["pretrain-teacher"], ["fit-generator"],
                ["train-audio"]):
        assert run_cli(*FAST, *cmd, "--run", run) == 0
    return run


def test_gen_data_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("gen-data", "--seed", 7, "--run", a) == 0
    assert run_cli("gen-data", "--seed", 7, "--run", b) == 0
    for name in ("manifest.txt", "audio.tmd", "image.tmd", "text.tmd",
                 "ids.tmd", "intensity.tmd"):
        assert filecmp.cmp(a / "dataset" / name, b / "dataset" / name,
                           shallow=False)


def test_pipeline_artifacts(pipeline_dir):
    for name in ("config.txt", "dataset/manifest.txt", "teacher.ckpt",
                 "teacher_loss.csv", "generator.ckpt", "audio.ckpt",
                 "audio_loss.csv"):
        assert (pipeline_dir / name).exists(), name


def test_config_echo_is_effective_config(pipeline_dir):
    text = (pipeline_dir / "config.txt").read_text()
    assert "teacher_epochs=2" in text
    assert "master_seed=7" in text


def test_manipulate_writes_outputs(pipeline_dir):
    assert run_cli(*FAST, "manipulate", "--run", pipeline_dir,
                   "--source-index", 96, "--audio-index", 144,
                   "--lambda-reg", 0.008, "--lambda-id", 0.004,
                   "--tag", "demo") == 0
    out = pipeline_dir / "manip" / "demo"
    traj = (out / "trajectory.csv").read_text().strip().splitlines()
    assert traj[0] == "step,hinge,reg,id,total"
    assert len(traj) == 6  # header + 5 steps
    before = read_pgm(out / "before.pgm")
    after = read_pgm(out / "after.pgm")
    assert before.shape == after.shape == (8, 8)
    assert (out / "latent.ckpt").exists()


def test_manipulate_checkpoint_records_the_settings_it_ran(pipeline_dir):
    # the flags override the run's config for this request, and
    # latent.ckpt embeds the settings the optimization ran with
    assert run_cli(*FAST, "manipulate", "--run", pipeline_dir,
                   "--source-index", 96, "--audio-index", 144,
                   "--steps", 4, "--lambda-id", 0.01, "--tag", "flagged") == 0
    out = pipeline_dir / "manip" / "flagged"
    _, text, _ = load_checkpoint(out / "latent.ckpt")
    saved = config_from_text(text)
    assert (saved.manip_steps, saved.lambda_id) == (4, 0.01)
    assert saved.lambda_reg == RunConfig().lambda_reg
    assert len((out / "trajectory.csv").read_text().splitlines()) == 5
    # the run's own config is left as it was
    echoed = config_from_text((pipeline_dir / "config.txt").read_text())
    assert (echoed.manip_steps, echoed.lambda_id) == (5, RunConfig().lambda_id)


def test_interpolate_and_mix(pipeline_dir):
    # both latents are written here, so the test runs alone too
    assert run_cli(*FAST, "manipulate", "--run", pipeline_dir,
                   "--source-index", 96, "--audio-index", 144,
                   "--tag", "base") == 0
    assert run_cli(*FAST, "manipulate", "--run", pipeline_dir,
                   "--source-index", 10, "--audio-index", 200,
                   "--tag", "other") == 0
    base = pipeline_dir / "manip" / "base" / "latent.ckpt"
    other = pipeline_dir / "manip" / "other" / "latent.ckpt"
    assert run_cli(*FAST, "interpolate", "--run", pipeline_dir,
                   "--latent-a", base, "--latent-b", other,
                   "--alpha", 0.5, "--tag", "lerp") == 0
    assert run_cli(*FAST, "mix", "--run", pipeline_dir,
                   "--latent-a", base, "--latent-b", other,
                   "--split", 4, "--tag", "mixed") == 0
    assert (pipeline_dir / "mix" / "lerp" / "image.pgm").exists()
    assert (pipeline_dir / "mix" / "mixed" / "latent.ckpt").exists()


def test_interpolate_and_mix_need_only_the_generator(pipeline_dir, tmp_path):
    # a directory holding generator.ckpt alone: no teacher, no audio.ckpt
    assert run_cli(*FAST, "manipulate", "--run", pipeline_dir,
                   "--source-index", 3, "--audio-index", 50,
                   "--tag", "gen_only") == 0
    latent = pipeline_dir / "manip" / "gen_only" / "latent.ckpt"
    run = tmp_path / "gen_only"
    run.mkdir()
    shutil.copy(pipeline_dir / "generator.ckpt", run)
    for command, option in (("interpolate", ["--alpha", 0.25]),
                            ("mix", ["--split", 3])):
        argv = [command, "--latent-a", latent, "--latent-b", latent, *option,
                "--tag", f"gen_only_{command}"]
        assert run_cli(*FAST, *argv, "--run", run) == 0
        assert run_cli(*FAST, *argv, "--run", pipeline_dir) == 0
        # the same outputs as in the full run directory
        for name in ("image.pgm", "latent.ckpt"):
            assert filecmp.cmp(run / "mix" / f"gen_only_{command}" / name,
                               pipeline_dir / "mix" / f"gen_only_{command}"
                               / name, shallow=False)


def test_eval_commands_write_reports(pipeline_dir):
    assert run_cli(*FAST, "eval-zeroshot", "--run", pipeline_dir) == 0
    assert run_cli(*FAST, "eval-probe", "--run", pipeline_dir) == 0
    for name in ("zeroshot.csv", "zeroshot.txt", "probe.csv", "probe.txt"):
        assert (pipeline_dir / "reports" / name).exists()


def test_direction_stats_command(pipeline_dir):
    assert run_cli(*FAST, "direction-stats", "--run", pipeline_dir,
                   "--attrs", "3", "--seeds", 2) == 0
    assert (pipeline_dir / "reports" / "direction.csv").exists()


def test_gradcheck_exits_zero(tmp_path):
    assert run_cli("gradcheck", "--run", tmp_path / "g") == 0
    report = (tmp_path / "g" / "reports" / "gradcheck.txt").read_text()
    assert "34/34" in report


def test_missing_inputs_io_error(tmp_path, capsys):
    code = run_cli("pretrain-teacher", "--run", tmp_path / "empty")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: io:")
    assert "\n" not in err.strip()


def test_bad_override_validation_error(tmp_path, capsys):
    code = run_cli("--set", "nonsense=1", "gen-data", "--run", tmp_path / "x")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: validation:")


# name -> (artifact, corruption, text the error line must contain)
CORRUPTIONS = {
    "manifest_classes_abc": ("dataset/manifest.txt",
                             lambda b: b.replace(b"classes=8", b"classes=abc"),
                             "manifest.txt: invalid entries: classes"),
    "audio_tmd_truncated": ("dataset/audio.tmd", lambda b: b[:1000],
                            "audio.tmd"),
    "manifest_classes_0": ("dataset/manifest.txt",
                           lambda b: b.replace(b"classes=8", b"classes=0"),
                           "manifest.txt: manifest counts must all be >= 1"),
    "manifest_videos_per_class_7": (
        "dataset/manifest.txt",
        lambda b: b.replace(b"videos_per_class=6", b"videos_per_class=7"),
        "audio.tmd: shape (384, 20, 10) does not match (448, 20, 10)"),
    # a well-formed audio.tmd holding the first 100 of the 384 records
    "audio_tmd_100_records": (
        "dataset/audio.tmd",
        lambda b: b[:4] + struct.pack("<i", 100) + b[8:20 + 100 * 200 * 8],
        "audio.tmd: shape (100, 20, 10) does not match (384, 20, 10)"),
    "teacher_ckpt_truncated": ("teacher.ckpt", lambda b: b[:300],
                               "teacher.ckpt"),
    "teacher_ckpt_garbled": ("teacher.ckpt",
                             lambda b: b[:30] + b"\xff\xfe" + b[32:],
                             "teacher.ckpt"),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupt_artifact_validation_error(name, pipeline_dir, tmp_path,
                                           capsys):
    run = tmp_path / "run"
    shutil.copytree(pipeline_dir / "dataset", run / "dataset")
    shutil.copy(pipeline_dir / "teacher.ckpt", run / "teacher.ckpt")
    rel, corrupt, needle = CORRUPTIONS[name]
    (run / rel).write_bytes(corrupt((run / rel).read_bytes()))
    capsys.readouterr()
    assert run_cli(*FAST, "train-audio", "--run", run) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: validation:")
    assert needle in err
    assert "\n" not in err.strip()


def test_bad_index_validation_error(pipeline_dir, capsys):
    code = run_cli(*FAST, "manipulate", "--run", pipeline_dir,
                   "--source-index", 10_000, "--audio-index", 0)
    assert code == 2
    assert "error: validation:" in capsys.readouterr().err


# each manipulation setting must be finite and >= 0
BAD_MANIP_SETTINGS = {
    "step_size_nan": (["--step-size", "nan"], "step_size"),
    "step_size_inf": (["--step-size", "inf"], "step_size"),
    "lambda_reg_nan": (["--lambda-reg", "nan"], "lambda_reg"),
    "lambda_reg_negative": (["--lambda-reg", "-5"], "lambda_reg"),
    "lambda_id_inf": (["--lambda-id", "inf"], "lambda_id"),
    "set_manip_step_size_nan": (["--set", "manip_step_size=nan"], "step_size"),
}


@pytest.mark.parametrize("name", sorted(BAD_MANIP_SETTINGS))
def test_bad_manipulation_setting_validation_error(name, pipeline_dir, capsys):
    flags, field = BAD_MANIP_SETTINGS[name]
    capsys.readouterr()
    code = run_cli(*FAST, "manipulate", "--run", pipeline_dir,
                   "--source-index", 96, "--audio-index", 144,
                   "--tag", "bad", *flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: validation:")
    assert field in err
    assert "\n" not in err.strip()


# argv -> the name the error line must give; each is rejected before any
# stage reads its inputs
BAD_SEEDS = {
    "master_seed": (["--seed", "-200", "gen-data"], "master_seed"),
    "master_seed_2_63": (["--seed", str(2 ** 63), "gen-data"], "master_seed"),
    "master_seed_set": (["--set", "master_seed=-1", "gen-data"],
                        "master_seed"),
    "gradcheck_seed": (["gradcheck", "--gradcheck-seed", "-1"],
                       "--gradcheck-seed"),
    "source_seed": (["manipulate", "--source-seed", "-1", "--audio-index", 0],
                    "--source-seed"),
}


@pytest.mark.parametrize("name", sorted(BAD_SEEDS))
def test_negative_seed_validation_error(name, tmp_path, capsys):
    argv, needle = BAD_SEEDS[name]
    capsys.readouterr()
    assert run_cli(*argv, "--run", tmp_path / "run") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: validation: {needle} must lie in [0, 2**63)")
    assert "\n" not in err.strip()


# --set override -> the error line after "error: validation: "; each is
# rejected before any stage runs
BAD_TRAINING_VALUES = {
    "text_aug_prob_7": ("text_aug_prob=7",
                        "text_aug_prob must lie in [0, 1], got 7.0"),
    "text_aug_prob_negative": ("text_aug_prob=-0.5",
                               "text_aug_prob must lie in [0, 1], got -0.5"),
    "freq_mask_ratio_1.5": ("freq_mask_ratio=1.5",
                            "freq_mask_ratio must lie in [0, 1), got 1.5"),
    "time_mask_ratio_1": ("time_mask_ratio=1",
                          "time_mask_ratio must lie in [0, 1), got 1.0"),
    "teacher_lr_nan": ("teacher_lr=nan",
                       "teacher_lr must be finite and > 0, got nan"),
    "audio_lr_0": ("audio_lr=0", "audio_lr must be finite and > 0, got 0.0"),
    "tau_inf": ("tau=inf", "tau must be finite and > 0, got inf"),
    "momentum_-3": ("momentum=-3", "momentum must lie in [0, 1), got -3.0"),
    "momentum_1": ("momentum=1", "momentum must lie in [0, 1), got 1.0"),
    "teacher_epochs_0": ("teacher_epochs=0",
                         "teacher_epochs must be >= 1, got 0"),
    "audio_epochs_0": ("audio_epochs=0", "audio_epochs must be >= 1, got 0"),
    "probe_epochs_0": ("probe_epochs=0", "probe_epochs must be >= 1, got 0"),
    "probe_lr_-1": ("probe_lr=-1", "probe_lr must be finite and > 0, got -1.0"),
    "probe_lr_nan": ("probe_lr=nan", "probe_lr must be finite and > 0, got nan"),
    "sched_period_0": ("sched_period=0", "sched_period must be >= 1, got 0"),
    "sched_period_-3": ("sched_period=-3", "sched_period must be >= 1, got -3"),
    "hidden_dim_0": ("hidden_dim=0", "hidden_dim must be >= 1, got 0"),
    "embed_dim_0": ("embed_dim=0", "embed_dim must be >= 1, got 0"),
    "latent_dim_0": ("latent_dim=0", "latent_dim must be >= 1, got 0"),
    "gen_fit_epochs_-1": ("gen_fit_epochs=-1",
                          "gen_fit_epochs must be >= 0, got -1"),
}

# the stage each case runs, and the artifact it must not write; a key that
# only the generator reads is tried on fit-generator
TRAINING_STAGES = {"latent_dim": ("fit-generator", "generator.ckpt"),
                   "gen_fit_epochs": ("fit-generator", "generator.ckpt")}


@pytest.mark.parametrize("name", sorted(BAD_TRAINING_VALUES))
def test_bad_training_value_validation_error(name, tmp_path, capsys):
    override, message = BAD_TRAINING_VALUES[name]
    command, artifact = TRAINING_STAGES.get(
        override.partition("=")[0], ("pretrain-teacher", "teacher.ckpt"))
    run = tmp_path / "run"
    assert run_cli(*FAST, "gen-data", "--run", run) == 0
    capsys.readouterr()
    code = run_cli(*FAST, "--set", override, command, "--run", run)
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: validation: {message}\n"
    assert not (run / artifact).exists()


def test_small_batch_rejected_before_any_stage(tmp_path, capsys):
    run = tmp_path / "run"
    capsys.readouterr()
    assert run_cli("--set", "batch_size=1", "gen-data", "--run", run) == 2
    err = capsys.readouterr().err
    assert err == "error: validation: batch_size must be >= 2, got 1\n"
    assert not run.exists()


# --set override -> the error line after "error: validation: "; the
# manipulation keys are checked before any stage runs, gen-data included
BAD_MANIPULATION_VALUES = {
    "manip_steps_0": ("manip_steps=0", "manip_steps must be >= 1, got 0"),
    "manip_step_size_-0.1": ("manip_step_size=-0.1", "manip_step_size must "
                             "be finite and >= 0, got -0.1"),
    "manip_step_size_inf": ("manip_step_size=inf", "manip_step_size must be "
                            "finite and >= 0, got inf"),
    "lambda_reg_nan": ("lambda_reg=nan",
                       "lambda_reg must be finite and >= 0, got nan"),
    "lambda_reg_-5": ("lambda_reg=-5",
                      "lambda_reg must be finite and >= 0, got -5.0"),
    "lambda_id_inf": ("lambda_id=inf",
                      "lambda_id must be finite and >= 0, got inf"),
    "lambda_id_-0.001": ("lambda_id=-0.001",
                         "lambda_id must be finite and >= 0, got -0.001"),
}


@pytest.mark.parametrize("name", sorted(BAD_MANIPULATION_VALUES))
def test_bad_manipulation_value_rejected_before_any_stage(name, tmp_path,
                                                          capsys):
    override, message = BAD_MANIPULATION_VALUES[name]
    run = tmp_path / "run"
    capsys.readouterr()
    assert run_cli("--set", override, "gen-data", "--run", run) == 2
    assert capsys.readouterr().err == f"error: validation: {message}\n"
    assert not run.exists()


def test_range_check_accepts_lower_bounds():
    # 0 fit epochs keeps the generator's init; zero weights and a zero step
    # size are allowed settings, one step the fewest
    RunConfig(gen_fit_epochs=0, manip_steps=1, manip_step_size=0.0,
              lambda_reg=0.0, lambda_id=0.0).check_ranges()


def test_reused_parser_leaks_nothing_into_the_next_call(tmp_path):
    # main builds its parser once per process: a call with --set overrides
    # and --seed must leave nothing behind for a later call that passes
    # neither
    assert run_cli("--set", "classes=4", "--set", "audio_epochs=3",
                   "gen-data", "--seed", 11, "--run", tmp_path / "a") == 0
    assert run_cli("gen-data", "--run", tmp_path / "b") == 0
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    subprocess.run([sys.executable, "-m", "sgim.cli", "gen-data", "--run",
                    str(tmp_path / "fresh")], check=True, env=env,
                   capture_output=True, timeout=120)
    text = (tmp_path / "b" / "config.txt").read_text()
    assert text == (tmp_path / "fresh" / "config.txt").read_text()
    assert text == config_to_text(RunConfig())
    first = (tmp_path / "a" / "config.txt").read_text()
    assert "master_seed=11\n" in first and "classes=4\n" in first


def test_ablate_loads_teacher_once_without_audio_ckpt(pipeline_dir, tmp_path,
                                                      capsys, monkeypatch):
    # each ablation arm trains its own audio encoder, so audio.ckpt is
    # neither needed nor read; the stub keeps anything from training
    run = tmp_path / "run"
    shutil.copytree(pipeline_dir, run)
    (run / "audio.ckpt").unlink()
    loaded = []
    real_load = checkpoint.load_checkpoint

    def counting_load(path):
        loaded.append(Path(path).name)
        return real_load(path)

    def stub_ablate(ds, manifest, teacher, models, config):
        assert models.image is teacher.image and models.text is teacher.text
        zs = evaluate.EvalReport("zero_shot", 0.5)
        return evaluate.AblationReport(zs, zs, 0.25, 0.125, 0.5, 0.75)

    monkeypatch.setattr(checkpoint, "load_checkpoint", counting_load)
    monkeypatch.setattr(cli, "ablate_weak_loss", stub_ablate)
    capsys.readouterr()
    assert run_cli(*FAST, "ablate", "--run", run) == 0
    assert sorted(loaded) == ["generator.ckpt", "teacher.ckpt"]
    assert capsys.readouterr().out == ("cosine margin (with - without): "
                                       "+0.1250\nleakage with kl: 0.5000\n"
                                       "leakage without kl: 0.7500\n")
    assert (run / "reports" / "ablation.csv").exists()


def test_diverging_step_is_internal_error(pipeline_dir, capsys):
    capsys.readouterr()
    code = run_cli(*FAST, "manipulate", "--run", pipeline_dir,
                   "--source-index", 96, "--audio-index", 144,
                   "--step-size", "1e300", "--tag", "diverge")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: internal: objective became non-finite")
    assert "\n" not in err.strip()


# command -> flags that leave it no loss term to train on
NO_LOSS_TERM = {
    "train-audio": ["use_loss_at=0", "use_loss_av=0", "use_loss_self=0",
                    "use_loss_kl=0"],
    # the with-KL arm has a term; the without-KL arm has none left
    "ablate": ["use_loss_at=0", "use_loss_av=0", "use_loss_self=0"],
}


@pytest.mark.parametrize("command", sorted(NO_LOSS_TERM))
def test_no_loss_term_validation_error(command, pipeline_dir, tmp_path,
                                       capsys, monkeypatch):
    run = tmp_path / "run"
    shutil.copytree(pipeline_dir, run)
    before = (run / "audio.ckpt").read_bytes()
    overrides = [a for kv in NO_LOSS_TERM[command] for a in ("--set", kv)]
    # ablate must reject its flags before either arm trains
    trained = []
    real = evaluate.train_audio_encoder

    def counting(*args):
        trained.append(args)
        return real(*args)

    monkeypatch.setattr(evaluate, "train_audio_encoder", counting)
    capsys.readouterr()
    assert run_cli(*FAST, *overrides, command, "--run", run) == 2
    assert trained == []
    err = capsys.readouterr().err
    assert err.startswith("error: validation: no loss term is enabled")
    assert "\n" not in err.strip()
    assert (run / "audio.ckpt").read_bytes() == before


def test_set_overrides_from_both_positions_apply(tmp_path):
    # the top-level list applies first, so the subcommand's wins a clash
    assert run_cli("--set", "classes=4", "--set", "audio_epochs=5",
                   "gen-data", "--set", "audio_epochs=3", "--set",
                   "records_per_video=6", "--run", tmp_path) == 0
    lines = (tmp_path / "config.txt").read_text().splitlines()
    for line in ("classes=4", "audio_epochs=3", "records_per_video=6"):
        assert line in lines


def test_diverging_training_is_internal_error(pipeline_dir, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(pipeline_dir / "dataset", run / "dataset")
    shutil.copy(pipeline_dir / "teacher.ckpt", run / "teacher.ckpt")
    capsys.readouterr()
    code = run_cli(*FAST, "--set", "audio_lr=1e308", "train-audio",
                   "--run", run)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: internal: train-audio: loss or gradient "
                          "became non-finite at epoch 0, step ")
    assert "\n" not in err.strip()
    assert not (run / "audio.ckpt").exists()


def test_direction_stats_bad_attrs_validation_error(pipeline_dir, capsys):
    capsys.readouterr()
    code = run_cli(*FAST, "direction-stats", "--run", pipeline_dir,
                   "--attrs", "x", "--seeds", 2)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: validation: --attrs must be comma-separated "
                          "class ids, got 'x'")
    assert "\n" not in err.strip()


def test_rerun_reproduces_artifacts_bit_exact(tmp_path):
    runs = []
    for name in ("r1", "r2"):
        run = tmp_path / name
        for cmd in (["gen-data"], ["pretrain-teacher"], ["fit-generator"],
                    ["train-audio"], ["eval-zeroshot"],
                    ["manipulate", "--source-index", 96, "--audio-index", 144],
                    ["direction-stats", "--attrs", 3, "--seeds", 2]):
            assert run_cli(*FAST, *cmd, "--run", run) == 0
        runs.append(run)
    for rel in ("teacher_loss.csv", "audio_loss.csv", "teacher.ckpt",
                "audio.ckpt", "generator.ckpt", "reports/zeroshot.csv",
                "manip/latest/latent.ckpt", "manip/latest/trajectory.csv",
                "manip/latest/after.pgm", "reports/direction.csv"):
        assert filecmp.cmp(runs[0] / rel, runs[1] / rel, shallow=False), rel
