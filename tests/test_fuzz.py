"""Garbled text artifacts: a `--config` file and `dataset/manifest.txt`,
truncated, bit-flipped or with bytes replaced, end every stage that reads
them in one `error: <kind>:` line with exit 2 or 3, never a traceback.

Each example runs `eval-probe` in process. It reads the config first and
the manifest next, then the dataset's columns and `audio.ckpt`, which no
run directory here holds: so a garble that still parses ends in the io
error for the missing file, after the few milliseconds of loading the
data, and no example trains or evaluates anything."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgim.cli import main
from sgim.config import RunConfig, config_to_text


@st.composite
def garbled(draw, blob: bytes) -> bytes:
    """``blob`` truncated, with one bit flipped, or with 1-8 bytes replaced
    by other bytes."""
    kind = draw(st.sampled_from(["truncate", "flip", "replace"]))
    at = draw(st.integers(0, len(blob) - 1))
    if kind == "truncate":
        return blob[:at]
    if kind == "flip":
        bit = 1 << draw(st.integers(0, 7))
        return blob[:at] + bytes([blob[at] ^ bit]) + blob[at + 1:]
    old = blob[at:at + draw(st.integers(1, 8))]
    new = draw(st.binary(min_size=len(old), max_size=len(old))
               .filter(lambda b: b != old))
    return blob[:at] + new + blob[at + len(old):]


def _one_error_line(*argv) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    lines = err.getvalue().splitlines()
    assert code in (2, 3), lines
    assert len(lines) == 1, lines
    kind = {2: "validation", 3: "io"}[code]
    assert lines[0].startswith(f"error: {kind}: "), lines
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A run directory holding a default dataset, and its manifest's bytes."""
    run = tmp_path_factory.mktemp("fuzz") / "run"
    assert main(["gen-data", "--run", str(run)]) == 0
    return run, (run / "dataset" / "manifest.txt").read_bytes()


@settings(max_examples=100)
@given(data=st.data())
def test_garbled_config_file_is_one_error_line(data, run_dir):
    run, _ = run_dir
    path = run.with_name("garbled.cfg")
    path.write_bytes(data.draw(garbled(config_to_text(RunConfig()).encode())))
    _one_error_line("--config", path, "eval-probe", "--run",
                    run.with_name("empty"))


@settings(max_examples=100)
@given(data=st.data())
def test_garbled_manifest_is_one_error_line(data, run_dir):
    run, manifest = run_dir
    (run / "dataset" / "manifest.txt").write_bytes(data.draw(garbled(manifest)))
    _one_error_line("eval-probe", "--run", run)
