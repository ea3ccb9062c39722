import filecmp
import shutil
import struct

import pytest

from sgim.cli import main
from sgim.pgm import read_pgm

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


def test_interpolate_and_mix(pipeline_dir):
    base = pipeline_dir / "manip" / "demo" / "latent.ckpt"
    assert run_cli(*FAST, "manipulate", "--run", pipeline_dir,
                   "--source-index", 10, "--audio-index", 200,
                   "--tag", "other") == 0
    other = pipeline_dir / "manip" / "other" / "latent.ckpt"
    assert run_cli(*FAST, "interpolate", "--run", pipeline_dir,
                   "--latent-a", base, "--latent-b", other,
                   "--alpha", 0.5, "--tag", "lerp") == 0
    assert run_cli(*FAST, "mix", "--run", pipeline_dir,
                   "--latent-a", base, "--latent-b", other,
                   "--split", 4, "--tag", "mixed") == 0
    assert (pipeline_dir / "mix" / "lerp" / "image.pgm").exists()
    assert (pipeline_dir / "mix" / "mixed" / "latent.ckpt").exists()


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
    assert "23/23" in report


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


def test_rerun_reproduces_artifacts_bit_exact(tmp_path):
    runs = []
    for name in ("r1", "r2"):
        run = tmp_path / name
        for cmd in (["gen-data"], ["pretrain-teacher"], ["fit-generator"],
                    ["train-audio"], ["eval-zeroshot"]):
            assert run_cli(*FAST, *cmd, "--run", run) == 0
        runs.append(run)
    for rel in ("teacher_loss.csv", "audio_loss.csv", "teacher.ckpt",
                "audio.ckpt", "generator.ckpt", "reports/zeroshot.csv"):
        assert filecmp.cmp(runs[0] / rel, runs[1] / rel, shallow=False), rel
