"""Command-line pipeline driver.

Every subcommand operates on one run directory (--run, default ./sgim-run)
with fixed artifact names, so a full pipeline is:

    sgim gen-data --run R
    sgim pretrain-teacher --run R
    sgim fit-generator --run R
    sgim train-audio --run R
    sgim manipulate --run R --source-index 96 --audio-index 144
    sgim eval-zeroshot --run R

Configuration comes from built-in defaults, then an optional --config file,
then repeatable --set key=value overrides; the effective config is echoed
into the run directory by every command. Failures print one line
"error: <kind>: <message>" and exit 1 (internal), 2 (validation) or 3 (io).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .config import RunConfig, config_to_text, load_config
from .data import generate_dataset, load_dataset, save_dataset, split_by_video
from .encoders import (encode_np, loss_log_csv, pretrain_teacher,
                       train_audio_encoder)
from .errors import (ConfigError, DegenerateInputError, DimensionError,
                     NumericsError, ParameterError, SgimError, UsageError)
from .evaluate import (ablate_weak_loss, ablation_csv, direction_stats,
                       probe_on_heldout_videos, report_csv, report_text,
                       soft_direction_check, zero_shot_classify)
from .files import write_atomic
from .generator import fit_generator_to_dataset, sample_source_latent, synthesize
from .gradcheck import format_results, run_gradient_checks
from .manipulate import (ModelBundle, init_identity_extractor, interpolate,
                         optimize_guided, style_mix, trajectory_csv)
from .pgm import write_pgm


def _echo_config(run: Path, config: RunConfig) -> None:
    write_atomic(run / "config.txt", config_to_text(config))


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"{path} missing; run `sgim {hint}` first")
    return path


def _load_dataset(run: Path):
    return load_dataset(_require(run / "dataset", "gen-data"))


def _arrays(path: Path, hint: str) -> dict[str, np.ndarray]:
    return ckpt.load_checkpoint(_require(path, hint))[0]


def _load_teacher(run: Path):
    return ckpt.teacher_from_arrays(_arrays(run / "teacher.ckpt",
                                            "pretrain-teacher"))


def _load_audio(run: Path):
    return ckpt.encoder_from_arrays("audio", _arrays(run / "audio.ckpt",
                                                     "train-audio"))


def _load_generator(run: Path):
    return ckpt.generator_from_arrays(_arrays(run / "generator.ckpt",
                                              "fit-generator"))


def _bundle(run: Path, config: RunConfig, teacher,
            audio) -> tuple[ModelBundle, "object"]:
    """The run's models around a loaded teacher and audio encoder, and the
    generator fit. The identity extractor takes the generator's image size."""
    fit = _load_generator(run)
    identity = init_identity_extractor(
        np.random.default_rng(config.seed_for("manip")),
        pixels=fit.params.bias.size)
    return ModelBundle(fit.params, audio, teacher.text, teacher.image,
                       identity), fit


def cmd_gen_data(run: Path, args, config: RunConfig) -> int:
    manifest = config.dataset_manifest()
    ds = generate_dataset(manifest)
    save_dataset(run / "dataset", manifest, ds)
    print(f"wrote {len(ds)} records to {run / 'dataset'}")
    return 0


def cmd_pretrain_teacher(run: Path, args, config: RunConfig) -> int:
    manifest, ds = _load_dataset(run)
    train, _ = split_by_video(ds, manifest)
    teacher, log = pretrain_teacher(train, config)
    ckpt.save_checkpoint(run / "teacher.ckpt", ckpt.teacher_arrays(teacher),
                         config_to_text(config), config.master_seed)
    rows = ["epoch,loss"] + [f"{e},{v!r}" for e, v in log]
    write_atomic(run / "teacher_loss.csv", "\n".join(rows) + "\n")
    print(f"teacher loss {log[0][1]:.4f} -> {log[-1][1]:.4f}")
    return 0


def cmd_fit_generator(run: Path, args, config: RunConfig) -> int:
    _, ds = _load_dataset(run)
    fit = fit_generator_to_dataset(ds.image, config.gen_fit_epochs,
                                   config.seed_for("generator"),
                                   latent_dim=config.latent_dim)
    ckpt.save_checkpoint(run / "generator.ckpt", ckpt.generator_arrays(fit),
                         config_to_text(config), config.master_seed)
    write_atomic(run / "generator.txt", f"mse_initial={fit.mse_history[0]!r}\n"
                 f"mse_final={fit.final_mse!r}\n")
    print(f"reconstruction mse {fit.mse_history[0]:.4g} -> {fit.final_mse:.4g}")
    return 0


def cmd_train_audio(run: Path, args, config: RunConfig) -> int:
    manifest, ds = _load_dataset(run)
    train, _ = split_by_video(ds, manifest)
    teacher = _load_teacher(run)
    audio, log = train_audio_encoder(train, teacher, config)
    ckpt.save_checkpoint(run / "audio.ckpt", ckpt.encoder_arrays("audio", audio),
                         config_to_text(config), config.master_seed)
    write_atomic(run / "audio_loss.csv", loss_log_csv(log))
    print(f"total loss {log[0][1].total:.4f} -> {log[-1][1].total:.4f}")
    return 0


def cmd_manipulate(run: Path, args, config: RunConfig) -> int:
    manifest, ds = _load_dataset(run)
    models, fit = _bundle(run, config, _load_teacher(run), _load_audio(run))
    if args.source_index is not None:
        if not (0 <= args.source_index < len(fit.latents)):
            raise UsageError(f"source index out of range "
                             f"[0, {len(fit.latents)})")
        w_s = fit.latents[args.source_index]
    else:
        w_s = sample_source_latent(args.source_seed, models.generator)
    if not (0 <= args.audio_index < len(ds)):
        raise UsageError(f"audio index out of range [0, {len(ds)})")
    mel = ds.audio[args.audio_index]
    (w_a,), (gate,), trajectory = optimize_guided(
        w_s[None], encode_np(models.audio, mel.reshape(1, -1)), config, models)
    out = run / "manip" / args.tag
    ckpt.save_checkpoint(out / "latent.ckpt", ckpt.latent_arrays(w_a, gate),
                         config_to_text(config), config.master_seed)
    write_atomic(out / "trajectory.csv", trajectory_csv(trajectory))
    write_pgm(out / "before.pgm", synthesize(w_s, models.generator))
    write_pgm(out / "after.pgm", synthesize(w_a, models.generator))
    hinge = trajectory.hinge[:, 0]
    print(f"hinge {hinge[0]:.4f} -> {hinge[-1]:.4f}; outputs in {out}")
    return 0


def cmd_combine(run: Path, args, config: RunConfig) -> int:
    """`interpolate` or `mix` two saved latent codes."""
    gen = _load_generator(run).params
    w_a, w_b = (ckpt.latent_from_arrays(_arrays(Path(p), "manipulate"))[0]
                for p in (args.latent_a, args.latent_b))
    if args.command == "interpolate":
        w, done = interpolate(w_a, w_b, args.alpha), "interpolated"
    else:
        w, done = style_mix(w_a, w_b, args.split), "style-mixed"
    out = run / "mix" / args.tag
    ckpt.save_checkpoint(out / "latent.ckpt", ckpt.latent_arrays(w),
                         config_to_text(config), config.master_seed)
    write_pgm(out / "image.pgm", synthesize(w, gen))
    print(f"{done} latent written to {out}")
    return 0


def _write_report(run: Path, name: str, report) -> None:
    write_atomic(run / "reports" / f"{name}.csv", report_csv(report))
    write_atomic(run / "reports" / f"{name}.txt", report_text(report))


def cmd_eval_zeroshot(run: Path, args, config: RunConfig) -> int:
    manifest, ds = _load_dataset(run)
    _, held = split_by_video(ds, manifest)
    teacher = _load_teacher(run)
    audio = _load_audio(run)
    report = zero_shot_classify(held, audio, teacher.text, manifest.classes,
                                config)
    _write_report(run, "zeroshot", report)
    print(f"zero-shot accuracy {report.overall:.4f}")
    return 0


def cmd_eval_probe(run: Path, args, config: RunConfig) -> int:
    manifest, ds = _load_dataset(run)
    audio = _load_audio(run)
    report = probe_on_heldout_videos(ds, manifest, audio, config)
    _write_report(run, "probe", report)
    print(f"linear probe accuracy {report.overall:.4f}")
    return 0


def cmd_ablate(run: Path, args, config: RunConfig) -> int:
    manifest, ds = _load_dataset(run)
    teacher = _load_teacher(run)
    # each arm trains its own audio encoder, so audio.ckpt is not read
    models, _ = _bundle(run, config, teacher, audio=None)
    report = ablate_weak_loss(ds, manifest, teacher, models, config)
    summary = (f"cosine margin (with - without): {report.cosine_margin:+.4f}\n"
               f"leakage with kl: {report.leakage_with_kl:.4f}\n"
               f"leakage without kl: {report.leakage_without_kl:.4f}\n")
    write_atomic(run / "reports" / "ablation.csv", ablation_csv(report))
    write_atomic(run / "reports" / "ablation.txt", summary)
    print(summary, end="")
    return 0


def cmd_direction_stats(run: Path, args, config: RunConfig) -> int:
    _, ds = _load_dataset(run)
    models, _ = _bundle(run, config, _load_teacher(run), _load_audio(run))
    try:
        attrs = [int(a) for a in args.attrs.split(",") if a.strip()]
    except ValueError:
        raise UsageError("--attrs must be comma-separated class ids, "
                         f"got {args.attrs!r}") from None
    report = direction_stats(attrs, args.seeds, ds, models, config)
    _write_report(run, "direction", report)
    ok, msg = soft_direction_check(report)
    print(("PASS " if ok else "SOFT-FAIL ") + msg)
    return 0


def cmd_gradcheck(run: Path, args, config: RunConfig) -> int:
    results = run_gradient_checks(args.gradcheck_seed)
    text = format_results(results)
    write_atomic(run / "reports" / "gradcheck.txt", text)
    print(text, end="")
    return 0 if all(r.passed for r in results) else 1


def _config_options(parser: argparse.ArgumentParser, set_dest: str) -> None:
    # SUPPRESS keeps subcommand-level parsing from clobbering values given
    # before the subcommand. argparse copies the subcommand's namespace over
    # the top level's, so each position keeps its --set list under its own
    # dest, and main joins them
    parser.add_argument("--config", default=argparse.SUPPRESS,
                        help="key=value config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        dest=set_dest, default=argparse.SUPPRESS,
                        help="override one config key (repeatable)")
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="master seed override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgim",
        description="desk-scale sound-guided image manipulation pipeline")
    _config_options(parser, "set_top")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _config_options(p, "set_sub")
        p.add_argument("--run", default="sgim-run", help="run directory")
        p.set_defaults(func=fn)
        return p

    add("gen-data", cmd_gen_data, help="generate the synthetic dataset")
    add("pretrain-teacher", cmd_pretrain_teacher,
        help="pretrain and freeze the text/image teacher")
    add("fit-generator", cmd_fit_generator,
        help="fit the layered generator to the dataset images")
    add("train-audio", cmd_train_audio,
        help="train the audio encoder against the frozen teacher")

    m = add("manipulate", cmd_manipulate, help="audio-guided latent optimization")
    m.add_argument("--source-index", type=int,
                   help="use a fitted latent by record index")
    m.add_argument("--source-seed", type=int, default=0,
                   help="random source latent seed (ignored with --source-index)")
    m.add_argument("--audio-index", type=int, required=True,
                   help="record index providing the guiding audio")
    m.add_argument("--tag", default="latest", help="output subdirectory name")

    for name in ("interpolate", "mix"):
        p = add(name, cmd_combine, help=f"{name} two saved latent codes")
        p.add_argument("--latent-a", required=True)
        p.add_argument("--latent-b", required=True)
        p.add_argument("--tag", default=name)
        if name == "interpolate":
            p.add_argument("--alpha", type=float, required=True)
        else:
            p.add_argument("--split", type=int, required=True)

    add("eval-zeroshot", cmd_eval_zeroshot,
        help="zero-shot audio classification on held-out videos")
    add("eval-probe", cmd_eval_probe, help="linear probe on audio embeddings")
    add("ablate", cmd_ablate, help="weak-loss ablation (two training arms)")

    d = add("direction-stats", cmd_direction_stats,
            help="audio- vs text-guided latent direction statistics")
    d.add_argument("--attrs", default="3,5", help="comma-separated class ids")
    d.add_argument("--seeds", type=int, default=10, help="seeds per attribute")

    g = add("gradcheck", cmd_gradcheck,
            help="finite-difference check of the 15 hand-derived "
                 "gradients the pipeline runs")
    g.add_argument("--gradcheck-seed", type=int, default=0)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing reads the parser
    and never changes it, so one call's arguments cannot reach the next."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # overrides given before the subcommand apply first
        config = load_config(getattr(args, "config", None),
                             getattr(args, "set_top", [])
                             + getattr(args, "set_sub", []))
        seed = getattr(args, "seed", None)
        if seed is not None:
            config.master_seed = seed
        seeds = {"master_seed": config.master_seed,
                 "--source-seed": getattr(args, "source_seed", 0),
                 "--gradcheck-seed": getattr(args, "gradcheck_seed", 0)}
        for name, value in seeds.items():
            # numpy rejects negative seeds; checkpoints store an int64
            if not 0 <= value < 2 ** 63:
                raise UsageError(f"{name} must lie in [0, 2**63), got {value}")
        config.check_ranges()
        run = Path(args.run)
        _echo_config(run, config)
        return args.func(run, args, config)
    except (ConfigError, UsageError, ParameterError, DimensionError,
            DegenerateInputError) as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 3
    except (NumericsError, SgimError) as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
