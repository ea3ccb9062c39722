"""Benchmark of the sgim pipeline, driven through `sgim.cli.main` in process.

    python3 bench/run.py --workload {train,interactive,sweep} --seed N \
        --seconds S --trace {0,1}

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished, until S seconds have passed (at least
one operation always completes). Every CLI command issued counts as one
attempted operation; it fails if it exits nonzero, raises, or its outputs
fail the workload's checks.

Set-up is the same work on every workload: one run directory (gen-data ..
train-audio) built several times under one master seed, drawn from --seed
except on train; the builds must agree byte for byte on `audio.ckpt`.

- train: one full pipeline at a time (gen-data, pretrain-teacher,
  fit-generator, train-audio, eval-zeroshot, eval-probe), each in a fresh
  run directory under a master seed drawn from --seed. Set-up builds the
  canonical run directory instead (the CLI's default master seed, the one
  the acceptance criteria use) as a warm-up; its held-out zero-shot
  accuracy must reach 0.9. Checks per pipeline: final total loss below the
  first epoch's, and held-out zero-shot accuracy above chance (more hits
  than guessing gets with probability 0.995). Accuracy reaches 0.9 on most
  master seeds but not all (the audio encoder underfits some), so each
  pipeline's accuracy and the share below 0.9 are reported, not gated.
- interactive: `manipulate` requests on the set-up build, one at a time, with
  a source record and a guiding audio record of another class drawn from
  --seed. Checks: every trajectory row finite, final hinge < 1, and
  `latent.ckpt` loads back; the first request is replayed after the window
  and must reproduce `latent.ckpt`.
- sweep: `direction-stats --attrs 3 --seeds 2` on the set-up build,
  repeated. Checks: every cos_* entry finite, and every repeat writes the
  same `reports/direction.csv`.

End-to-end metrics (--trace 0), reported on every workload. An operation
here is one pipeline (train), one manipulate request (interactive) or one
direction-stats command (sweep):

- setup_s: median over the set-up repeats of the time to build the run
  directory;
- peak_rss_mb: peak resident set of the process during the timed loop:
  the kernel's high-water mark (VmHWM) is reset when the loop starts,
  after freed heap is handed back to the OS, so set-up builds do not hide
  the loop's own peak (the set-up peak is kept in the detail file);
- latency_p50_ms: median wall time of an operation;
- latency_tail_ms: the highest of p99/p95/p90/p75/p50 with at least 10
  samples beyond it; the maximum when there are fewer than 20 samples;
- work_rate_per_s: training samples (epochs x steps x batch) per second
  of train-audio on train; latent optimization steps per second of
  manipulate / direction-stats on interactive and sweep: the work of the
  timed loop over the wall time it took.

The traced run (--trace 1) wraps every public `sgim` function (see
spans.py) and reports per-layer figures per operation of the timed loop:
calls, self time, bytes, backward self time of each autodiff op, and the
median wall time of each CLI stage. It writes the span dump and a table of
every traced name to bench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; bench/out/ also gets a detail file
with the environment, every sample, the digests and the figures under the
names the metrics are known by per workload (pipeline_s,
manip_latency_p50_ms, ...).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / "_work"

PIPELINE = ("gen-data", "pretrain-teacher", "fit-generator", "train-audio",
            "eval-zeroshot", "eval-probe")
BUILD = PIPELINE[:4]
SETUP_REPEATS = 3
# 4 optimizations of ~1.5 s; two classes (8 optimizations) gave half the
# samples per run and a latency_p50_ms spread above its bound
SWEEP_ATTRS = "3"
SWEEP_SEEDS = 2
MIN_ZERO_SHOT = 0.9
CHANCE_QUANTILE = 0.995
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "work_rate_per_s": "1/s",
}

AUTODIFF_OPS = ("matmul", "add", "sub", "mul_elementwise", "scale", "tanh",
                "l2_normalize_rows", "row_softmax", "log", "sum_all",
                "slice_rows", "row_l2_norm", "max_with_zero", "sqrt",
                "transpose")
TIMED = ("autodiff.backward", "autodiff.leaf", "autodiff.constant",
         "data.sample_weak_pair", "data.sample_minibatch",
         "augment.augment_text", "augment.spec_augment", "encoders.encode_np",
         "losses.info_nce_pair_node", "losses.weak_kl_loss_node",
         "losses.total_loss_node", "encoders.encode_nodes",
         "encoders.pretrain_teacher", "encoders.train_audio_encoder",
         "generator.synthesize", "generator.synthesize_node",
         "generator.fit_generator_to_dataset", "manipulate.optimize_guided",
         "manipulate.objective_node", "evaluate.direction_stats",
         "evaluate.zero_shot_classify", "evaluate.probe_on_heldout_videos")
PERSISTENCE = ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
               "data.load_dataset", "data.save_dataset", "pgm.write_pgm")
CLI_STAGES = PIPELINE + ("manipulate", "direction-stats")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"cli.{s}.s": "s" for s in CLI_STAGES}
    units["autodiff.nodes"] = "count"
    for op in AUTODIFF_OPS:
        units[f"autodiff.{op}.calls"] = "count"
        units[f"autodiff.{op}.self_s"] = "s"
        units[f"autodiff.{op}.bwd_s"] = "s"
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in PERSISTENCE:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.bytes"] = "B"
    return units


# ---------------------------------------------------------------------------
# environment


def blas_info() -> dict:
    """BLAS name/version from numpy's build config and the thread count in
    effect, read from the loaded OpenBLAS (never set)."""
    import numpy as np

    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    pkg = Path(np.__file__).resolve().parent
    for libdir in (pkg.parent / "numpy.libs", pkg / ".libs"):
        if not libdir.is_dir():
            continue
        for lib_path in sorted(libdir.glob("*openblas*")):
            lib = ctypes.CDLL(str(lib_path))
            for prefix in ("scipy_", ""):
                for suffix in ("64_", ""):
                    fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}",
                                 None)
                    if fn is not None:
                        fn.restype = ctypes.c_int
                        info["threads"] = int(fn())
                        return info
    return info


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sgim").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy as np

    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(),
            "workload_seed": seed,
            "git_commit": git_commit(),
            "source_digest": source_digest()}


# ---------------------------------------------------------------------------
# small helpers


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def read_kv(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least 10
    samples beyond it (nearest rank), else the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def rss_high_water_mb() -> float:
    """The kernel's peak resident set of this process (VmHWM), in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def reset_rss_high_water() -> None:
    """Hands the heap that set-up freed back to the OS (glibc only), then
    resets VmHWM to the current resident set. Without the trim, the peak
    varied by a few percent with how much freed heap set-up happened to
    leave resident."""
    gc.collect()
    with contextlib.suppress(AttributeError):
        ctypes.CDLL(None).malloc_trim(0)
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


# ---------------------------------------------------------------------------
# one benchmark run


class Bench:
    """State of one run: CLI runner, operation counts and failure log."""

    def __init__(self, workload: str, seed: int, trace: bool):
        from sgim import cli
        from sgim.checkpoint import latent_from_arrays, load_checkpoint

        self.cli_main = cli.main
        # bound before tracing starts, so the checks are not traced
        self.load_latent = lambda path: latent_from_arrays(load_checkpoint(path)[0])[0]
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.work = WORK_DIR / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.tracer = None
        if trace:
            from spans import Tracer
            self.tracer = Tracer()
        self.in_window = False
        self.ops = 0                  # operations started in the timed loop
        self.attempted = 0            # CLI commands issued, set-up included
        self.failed = 0
        self.failures: list[str] = []
        self.stage_s: dict[str, list[float]] = {}   # timed loop only
        self.setup_s: list[float] = []
        self.latency_s: list[float] = []
        self.work_done = 0.0          # samples or latent steps, timed loop
        self.work_s = 0.0             # wall seconds that work took
        self.digests: dict[str, object] = {}
        self.notes: dict[str, object] = {}   # workload-specific detail
        self.setup_peak_rss_mb = 0.0
        self.peak_rss_mb = 0.0

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{what}: {why}")

    def check(self, what: str, problems: list[str]) -> bool:
        """Counts one failed operation if any output check failed."""
        if problems:
            self.fail(what, "; ".join(problems))
        return not problems

    def run_cli(self, *argv: str) -> tuple[bool, float]:
        """Issues one CLI command; returns (exited 0, wall seconds)."""
        command = argv[0]
        self.attempted += 1
        tracer = self.tracer if self.in_window else None
        frame = tracer.enter(f"cli.{command}") if tracer else None
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                rc = self.cli_main(list(argv))
            except Exception:  # a traceback is a failed operation, not a crash
                rc = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        if tracer:
            tracer.exit(frame)
        if self.in_window:
            self.stage_s.setdefault(command, []).append(seconds)
        if rc != 0:
            self.fail(command, f"exit {rc!r}: {out.getvalue()[-300:]}")
        return rc == 0, seconds

    def build(self, run: Path, master: int) -> bool:
        """gen-data .. train-audio into `run`."""
        return all(self.run_cli(c, "--run", str(run), "--seed", str(master))[0]
                   for c in BUILD)

    @contextlib.contextmanager
    def window(self):
        """The timed loop; tracing is on only inside it."""
        if self.tracer:
            self.tracer.instrument()
        self.in_window = True
        try:
            yield
        finally:
            self.in_window = False
            if self.tracer:
                self.tracer.uninstrument()

    def loop(self, seconds: float, operation) -> None:
        """Closed loop: runs `operation` until `seconds` have passed and one
        operation has completed. `operation` returns its wall seconds, or
        None when one of its commands exited nonzero."""
        self.setup_peak_rss_mb = rss_high_water_mb()
        reset_rss_high_water()
        start = time.perf_counter()
        with self.window():
            while not self.latency_s or time.perf_counter() - start < seconds:
                self.ops += 1
                if self.tracer:
                    self.tracer.request = self.ops
                seconds_taken = operation()
                if seconds_taken is not None:
                    self.latency_s.append(seconds_taken)
                elif not self.latency_s:
                    break           # the program fails outright; stop early
        self.peak_rss_mb = rss_high_water_mb()

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()        # only if no other run is using it


def run_config(run: Path) -> dict[str, int]:
    kv = read_kv(run / "config.txt")
    return {k: int(kv[k]) for k in ("classes", "videos_per_class",
                                    "records_per_video", "audio_epochs",
                                    "batch_size", "manip_steps")}


# -- train -------------------------------------------------------------------


def chance_hits(n: int, classes: int) -> int:
    """The number of hits out of n that guessing among `classes` reaches
    with probability at most 1 - CHANCE_QUANTILE (binomial quantile)."""
    p = 1.0 / classes
    cdf = 0.0
    for k in range(n + 1):
        cdf += math.comb(n, k) * p**k * (1 - p) ** (n - k)
        if cdf >= CHANCE_QUANTILE:
            return k
    return n


def zero_shot(b: Bench, run: Path) -> float | None:
    """Held-out zero-shot accuracy from the run's report; None (and one
    failed operation) when the report is unreadable."""
    try:
        return float(dict(read_csv(run / "reports" / "zeroshot.csv")[1])["overall"])
    except (OSError, KeyError, ValueError) as exc:
        b.fail("eval-zeroshot", f"{run.name}: unreadable report: {exc!r}")
        return None


def check_pipeline(b: Bench, run: Path, master: int) -> float | None:
    """Checks one pipeline's outputs; returns its zero-shot accuracy."""
    acc = zero_shot(b, run)
    if acc is not None:
        c = run_config(run)
        held = c["classes"] * c["records_per_video"]   # one video per class
        ceiling = chance_hits(held, c["classes"])
        b.check("eval-zeroshot", [] if round(acc * held) > ceiling else
                [f"seed {master}: zero-shot {acc} is within chance "
                 f"(<= {ceiling}/{held} hits)"])
    try:
        header, rows = read_csv(run / "audio_loss.csv")
        col = header.index("total")
        first, last = float(rows[0][col]), float(rows[-1][col])
        b.check("train-audio", [] if last < first else
                [f"seed {master}: total loss {first} -> {last} did not fall"])
    except (OSError, ValueError, IndexError) as exc:
        b.fail("train-audio", f"seed {master}: unreadable loss log: {exc!r}")
    return acc


def run_train(b: Bench, seconds: float) -> None:
    # the set-up build is a warm-up, so BLAS and LAPACK have started before
    # the first timed pipeline (without it, that pipeline ran about 1 s
    # slow). On a shared 2-core VM, a shorter warm-up (gen-data ..
    # fit-generator, 0.4 s) gave a setup_s whose median moved by 31% between
    # two sets of ten runs, against 5-14% for this 3.5 s build.
    from sgim.config import RunConfig

    canonical = RunConfig().master_seed
    prepared = prepared_run(b, canonical)
    if prepared is None:
        return
    run = prepared[0]
    if b.run_cli("eval-zeroshot", "--run", str(run))[0]:
        acc = zero_shot(b, run)
        if acc is not None:
            b.notes["canonical_zero_shot"] = acc
            b.check("eval-zeroshot", [] if acc >= MIN_ZERO_SHOT else
                    [f"canonical seed {canonical}: zero-shot {acc} < "
                     f"{MIN_ZERO_SHOT}"])
    audio: dict[str, str] = {}
    accuracies: dict[str, float] = {}
    failed_seeds: list[int] = []

    def one_pipeline() -> float | None:
        master = b.rng.randrange(2**31)
        run = b.work / "pipeline"
        shutil.rmtree(run, ignore_errors=True)
        failed_before = b.failed
        total = 0.0
        for command in PIPELINE:
            ok, s = b.run_cli(command, "--run", str(run), "--seed", str(master))
            if not ok:
                failed_seeds.append(master)
                return None
            total += s
        acc = check_pipeline(b, run, master)
        if acc is not None:
            accuracies[str(master)] = acc
        if b.failed > failed_before:
            failed_seeds.append(master)
        audio[str(master)] = digest(run / "audio.ckpt")
        c = run_config(run)
        n = c["classes"] * (c["videos_per_class"] - 1) * c["records_per_video"]
        batch = min(c["batch_size"], n)
        b.work_done += c["audio_epochs"] * max(n // batch, 1) * batch
        b.work_s += b.stage_s["train-audio"][-1]
        return total

    b.loop(seconds, one_pipeline)
    b.digests["pipeline_audio.ckpt"] = audio
    # every pipeline draws a new master seed, so counts grow with the
    # number of pipelines a run fits in: compare rates, not counts
    below = {s: a for s, a in accuracies.items() if a < MIN_ZERO_SHOT}
    b.notes.update(pipelines=b.ops, pipelines_failed=len(failed_seeds),
                   failed_master_seeds=failed_seeds,
                   zero_shot=accuracies, zero_shot_below_min=below,
                   zero_shot_below_min_rate=len(below) / max(len(accuracies), 1))


# -- interactive and sweep ---------------------------------------------------


def prepared_run(b: Bench, master: int | None = None) -> tuple[Path, int] | None:
    """Builds the run directory SETUP_REPEATS times under one master seed,
    drawn from --seed unless given; the builds must agree on audio.ckpt.
    Returns the last build and its master seed."""
    if master is None:
        master = b.rng.randrange(2**31)
    runs = []
    for k in range(SETUP_REPEATS):
        run = b.work / f"setup{k}"
        start = time.perf_counter()
        if not b.build(run, master):
            return None
        b.setup_s.append(time.perf_counter() - start)
        runs.append(run)
    digests = [digest(r / "audio.ckpt") for r in runs]
    b.digests["audio.ckpt"] = digests[0]
    b.check("train-audio", [] if len(set(digests)) == 1 else
            [f"set-up builds disagree on audio.ckpt: {digests}"])
    for run in runs[:-1]:
        shutil.rmtree(run, ignore_errors=True)
    return runs[-1], master


def check_manipulation(b: Bench, out: Path) -> list[str]:
    problems = []
    try:
        header, rows = read_csv(out / "trajectory.csv")
        values = [[float(x) for x in row] for row in rows]
        hinge = header.index("hinge")
    except (OSError, ValueError) as exc:
        return [f"unreadable trajectory.csv: {exc!r}"]
    if not values or not all(math.isfinite(x) for row in values for x in row):
        problems.append("trajectory has a non-finite or missing row")
    elif not values[-1][hinge] < 1.0:
        problems.append(f"final hinge {values[-1][hinge]} >= 1")
    try:
        if not b.load_latent(out / "latent.ckpt").size:
            problems.append("latent.ckpt holds an empty latent")
    except Exception as exc:  # any failure to load back is the finding
        problems.append(f"latent.ckpt does not load back: {exc!r}")
    return problems


def run_interactive(b: Bench, seconds: float) -> None:
    from sgim.data import load_dataset

    prepared = prepared_run(b)
    if prepared is None:
        return
    run, master = prepared
    classes = [r.class_id for r in load_dataset(run / "dataset")[1]]
    steps = run_config(run)["manip_steps"]
    latents: dict[str, str] = {}
    requests: list[tuple[int, int]] = []

    def manipulate(source: int, audio: int, tag: str) -> float | None:
        ok, s = b.run_cli("manipulate", "--run", str(run), "--seed", str(master),
                          "--source-index", str(source),
                          "--audio-index", str(audio), "--tag", tag)
        if not ok:
            return None
        if b.in_window:
            b.work_done += steps
            b.work_s += s
        out = run / "manip" / tag
        b.check("manipulate", check_manipulation(b, out))
        if (out / "latent.ckpt").exists():
            latents[tag] = digest(out / "latent.ckpt")
        return s

    def request() -> float | None:
        source = b.rng.randrange(len(classes))
        audio = b.rng.randrange(len(classes))
        while classes[audio] == classes[source]:
            audio = b.rng.randrange(len(classes))
        requests.append((source, audio))
        return manipulate(source, audio, f"r{len(requests):04d}")

    b.loop(seconds, request)
    if "r0001" in latents and manipulate(*requests[0], "replay") is not None:
        b.check("manipulate", [] if latents["replay"] == latents["r0001"] else
                [f"replayed latent.ckpt {latents['replay']} != {latents['r0001']}"])
    b.digests["latent.ckpt"] = latents


def run_sweep(b: Bench, seconds: float) -> None:
    prepared = prepared_run(b)
    if prepared is None:
        return
    run, master = prepared
    steps = run_config(run)["manip_steps"]
    report = run / "reports" / "direction.csv"
    optimizations = 2 * len(SWEEP_ATTRS.split(",")) * SWEEP_SEEDS
    seen: list[str] = []

    def sweep() -> float | None:
        ok, s = b.run_cli("direction-stats", "--run", str(run),
                          "--seed", str(master), "--attrs", SWEEP_ATTRS,
                          "--seeds", str(SWEEP_SEEDS))
        if not ok:
            return None
        b.work_done += optimizations * steps
        b.work_s += s
        rows = dict(read_csv(report)[1])
        cos = {k: float(v) for k, v in rows.items() if "cos_" in k}
        problems = [f"{k}={v}" for k, v in cos.items() if not math.isfinite(v)]
        if not cos:
            problems.append("no cos_* entries")
        seen.append(digest(report))
        if seen[-1] != seen[0]:
            problems.append(f"direction.csv {seen[-1]} != first {seen[0]}")
        b.check("direction-stats", problems)
        return s

    b.loop(seconds, sweep)
    b.digests["direction.csv"] = sorted(set(seen))


RUNNERS = {"train": run_train, "interactive": run_interactive,
           "sweep": run_sweep}


# ---------------------------------------------------------------------------
# reporting


def end_to_end(b: Bench) -> tuple[dict, dict]:
    """(metric values, detail) for --trace 0."""
    lat = b.latency_s
    p, tail = tail_latency(lat)
    values = {
        "setup_s": statistics.median(b.setup_s),
        "peak_rss_mb": b.peak_rss_mb,
        "latency_p50_ms": 1000.0 * statistics.median(lat),
        "latency_tail_ms": 1000.0 * tail,
        "work_rate_per_s": b.work_done / b.work_s,
    }
    detail = {"n": len(lat), "tail_percentile": p,
              "setup_n": len(b.setup_s),
              "setup_peak_rss_mb": b.setup_peak_rss_mb,
              "latency_quartiles_ms": [1000.0 * q for q in quartiles(lat)]}
    named = {}
    if b.workload == "train":
        named = {"pipeline_s": (values["latency_p50_ms"] / 1000.0, "s"),
                 "train_samples_per_s": (values["work_rate_per_s"], "1/s")}
    elif b.workload == "interactive":
        named = {"manip_latency_p50_ms": (values["latency_p50_ms"], "ms"),
                 "manip_latency_tail_ms": (values["latency_tail_ms"], "ms")}
    else:
        named = {"sweep_latent_steps_per_s": (values["work_rate_per_s"], "1/s")}
    detail["named"] = named
    detail.update(b.notes)
    return values, detail


def per_layer(b: Bench) -> dict[str, float]:
    """Per-layer figures per operation of the traced loop."""
    t = b.tracer
    ops = max(b.ops, 1)
    totals = t.totals
    values: dict[str, float] = {}
    for name in per_layer_units():
        if name.startswith("cli."):
            stage = name[4:-2]
            samples = b.stage_s.get(stage, [])
            values[name] = statistics.median(samples) if samples else 0.0
        elif name == "autodiff.nodes":
            values[name] = sum(c.get(name, 0) for c in t.by_request.values()) / ops
        else:
            layer, _, field = name.rpartition(".")
            if field == "bwd_s":
                layer, field = layer + ".bwd", "self_s"
            calls, self_s, nbytes = totals.get(layer, (0, 0.0, 0))
            values[name] = {"calls": calls, "self_s": self_s,
                            "bytes": nbytes}[field] / ops
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=RUNNERS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sgim" / "__init__.py").is_file():
        print(f"error: the sgim sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    b = Bench(args.workload, args.seed, bool(args.trace))
    try:
        RUNNERS[args.workload](b, args.seconds)
    finally:
        b.close()
    if not b.latency_s or not b.setup_s:
        print(f"error: no operation of {args.workload} succeeded: "
              f"{b.failures[:3]}", file=sys.stderr)
        return 1

    e2e, detail = end_to_end(b)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "env": environment(args.seed),
              "attempted": b.attempted, "failed": b.failed,
              "failures": b.failures, "end_to_end": e2e, "detail": detail,
              "setup_samples_s": b.setup_s, "latency_samples_s": b.latency_s,
              "stage_samples_s": b.stage_s, "digests": b.digests}
    if b.tracer is not None:
        layers = per_layer(b)
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        record["per_layer"] = layers
        record["traced_ops"] = b.ops
        record["layers"] = b.tracer.table()
        record["spans_dropped"] = b.tracer.dropped
        record["request_counts"] = b.tracer.by_request
        b.tracer.write(OUT_DIR / f"{stem}-spans.jsonl")
        ops = max(b.ops, 1)
        table = [f"{'name':44s} {'calls/op':>12s} {'self ms/op':>12s} {'bytes/op':>12s}"]
        table += [f"{r['name']:44s} {r['calls'] / ops:12.1f} "
                  f"{1000 * r['self_s'] / ops:12.4f} {r['bytes'] / ops:12.0f}"
                  for r in record["layers"]]
        (OUT_DIR / f"{stem}-layers.txt").write_text("\n".join(table) + "\n")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))

    env = record["env"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops_attempted={b.attempted} ops_failed={b.failed} "
          f"nproc={env['nproc']} blas={env['blas']['name']} "
          f"{env['blas']['version']} blas_threads={env['blas']['threads']} "
          f"numpy={env['numpy']} python={env['python']} "
          f"commit={env['git_commit']} source={env['source_digest']}")
    for name, value in e2e.items():
        print(f"  {name:24s} {value:14.4f} {END_TO_END[name]}")
    for name, (value, unit) in detail["named"].items():
        print(f"  {name:24s} {value:14.4f} {unit}  (n={detail['n']}, "
              f"tail p{detail['tail_percentile']:g})")
    if "zero_shot" in b.notes:
        below = b.notes["zero_shot_below_min"]
        print(f"  canonical zero-shot {b.notes.get('canonical_zero_shot')}; "
              f"pipelines below {MIN_ZERO_SHOT}: {len(below)} of "
              f"{len(b.notes['zero_shot'])} {below}")
    for failure in b.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": b.failed == 0, "attempted": b.attempted,
                      "failed": b.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
