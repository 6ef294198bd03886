"""Command-line entry point: one multiplexer, thirteen subcommands.

Exit codes: 0 success, 2 bad usage or parameters, 3 data/format
problems (including missing or unreadable files), 4 numeric failures.
Each subcommand parses its arguments and calls the ``pipeline`` stage
that ``run`` uses for the same step; a stage subcommand's parameter
flags are the keys of its config section, as ``PipelineConfig`` declares
them.  Every subcommand writes outputs atomically and logs one
``key=value`` line per completed stage on standard error.  Every
subcommand runs on one thread, with numpy's BLAS held at one thread;
``--threads`` is range-checked and changes no output.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__, pipeline
from .augment import plan_views
from .classify import load_svm, predict_matrix
from .config import PipelineConfig, load_config
from .errors import FvForgeError, ParameterError, ValidationError
from .evaluation import read_scores_csv, write_scores_csv
from .fusion import FusionWeights, fuse_scores
from .gmm import load_gmm
from .normalize import VARIANTS, extract_descriptors, variant_descriptors
from .pca import load_pca, project
from .synth import SynthSpec, generate_dataset
from .tensors import (
    ROLES,
    FeatureMap,
    GlobalVector,
    ScoreVector,
    atomic_write_text,
    load_manifest,
    read_as,
    read_matrix,
    write_rows,
    write_tensor,
)

logger = logging.getLogger("fvforge")

MAX_THREADS = 256


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(t.strip()) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise ParameterError(f"bad integer list '{text}'") from exc
    if not values:
        raise ParameterError(f"empty integer list '{text}'")
    return values


def _parse_weights(text: str) -> FusionWeights:
    parts = [t.strip() for t in text.split(",") if t.strip()]
    if len(parts) != 2:
        raise ParameterError(f"weights must be two comma-separated reals, got '{text}'")
    try:
        return FusionWeights(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ParameterError(f"bad weights '{text}'") from exc


def _add_key_flags(parser: argparse.ArgumentParser, section: str) -> None:
    """One ``--<key>`` flag per ``PipelineConfig`` field of ``section``,
    with the field's name, kind, default and choices."""
    for f in fields(PipelineConfig):
        meta = f.metadata
        if meta["section"] == section:
            (key,) = meta["keys"]
            parser.add_argument(
                "--" + key.replace("_", "-"), dest=f.name, type=meta["kind"],
                default=f.default, choices=meta["choices"] or None, help=f"[{section}] {key}",
            )


def _stage_config(args) -> PipelineConfig:
    """The default config with the key flags of ``args`` in place."""
    names = {f.name for f in fields(PipelineConfig)}
    return PipelineConfig(**{k: v for k, v in vars(args).items() if k in names})


def _descriptors(fmap: FeatureMap):
    """Descriptors of a (count x 1 x dim) container; another width is an error."""
    if fmap.width != 1:
        raise ValidationError(
            f"descriptor container is {fmap.height} x {fmap.width} x {fmap.channels}, "
            "expected count x 1 x dim"
        )
    return extract_descriptors(fmap)


def _read_descriptors(path: str):
    """Descriptors of one container file, read as ``fit-pca`` reads each input."""
    (descriptors,), _ = pipeline.read_stacks([path], [_descriptors])
    return descriptors


# ---------------------------------------------------------------- commands


def _cmd_plan_views(args) -> int:
    views = plan_views(
        image_width=args.width,
        image_height=args.height,
        scales=_parse_ints(args.scales),
        crop_size=args.crop,
        include_flips=not args.no_flips,
    )
    lines = ["scale,crop_x,crop_y,crop_size,flip"]
    for v in views.views:
        lines.append(
            f"{v.scale_smallest_side},{v.crop_x},{v.crop_y},"
            f"{v.crop_size},{int(v.flipped)}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    logger.info("stage=plan-views views=%d", len(views.views))
    return 0


def _cmd_tdd(args) -> int:
    descriptors = variant_descriptors(read_as(args.infile, FeatureMap), args.mode)
    write_rows(args.out, descriptors.count, descriptors.descriptors)
    logger.info(
        "stage=tdd mode=%s descriptors=%d out=%s",
        args.mode, descriptors.count, args.out,
    )
    return 0


def _cmd_fit_pca(args) -> int:
    cfg = _stage_config(args)
    (descriptors,), _ = pipeline.read_stacks(args.inputs, [_descriptors])
    pipeline.fit_pca_model(descriptors, cfg.pca_dim, args.out)
    return 0


def _cmd_apply_pca(args) -> int:
    projected = project(load_pca(args.model), _read_descriptors(args.infile))
    write_rows(args.out, projected.count, projected.descriptors)
    logger.info(
        "stage=apply-pca descriptors=%d dim=%d out=%s",
        projected.count, projected.dim, args.out,
    )
    return 0


def _cmd_fit_gmm(args) -> int:
    cfg = _stage_config(args)
    (descriptors,), _ = pipeline.read_stacks(args.inputs, [_descriptors])
    pipeline.fit_gmm_model(descriptors, cfg, args.out, cfg.gmm_seed)
    return 0


def _cmd_encode_fv(args) -> int:
    cfg = _stage_config(args)
    model = load_gmm(args.gmm)
    views = [_read_descriptors(p) for p in args.inputs]
    fv = pipeline.encode_views(model, views, cfg.pooling_order)
    write_tensor(GlobalVector(dim=fv.size, data=fv), args.out)
    logger.info(
        "stage=encode-fv views=%d k=%d dim=%d out=%s",
        len(views), model.K, fv.size, args.out,
    )
    return 0


def _cmd_fuse(args) -> int:
    weights = _parse_weights(args.alpha)
    first, second = (read_as(p, GlobalVector) for p in args.inputs)
    if args.mode == "scores":
        fused = fuse_scores(
            ScoreVector(first.dim, first.data),
            ScoreVector(second.dim, second.data),
            weights,
        ).scores
    else:
        fused = pipeline.fuse_features(first.data, second.data, weights)
    write_tensor(GlobalVector(dim=fused.size, data=fused), args.out)
    logger.info("stage=fuse mode=%s dim=%d out=%s", args.mode, fused.size, args.out)
    return 0


def _cmd_stack(args) -> int:
    entries = pipeline.entries_for_role(load_manifest(args.manifest), args.role)
    vectors = (
        read_as(Path(args.dir) / f"{e.image_id}.fvt", GlobalVector).data for e in entries
    )
    write_rows(args.out, len(entries), vectors)
    logger.info("stage=stack role=%s images=%d out=%s", args.role, len(entries), args.out)
    return 0


def _cmd_train_svm(args) -> int:
    cfg = _stage_config(args)
    pipeline.train_svm_model(load_manifest(args.manifest), args.features, args.out, cfg)
    return 0


def _cmd_predict(args) -> int:
    manifest = load_manifest(args.manifest)
    model = load_svm(args.model)
    if model.class_names and model.class_names != manifest.class_names:
        raise ValidationError(
            f"model classes {model.class_names} differ from the manifest's {manifest.class_names}"
        )
    entries = pipeline.entries_for_role(manifest, args.role)
    matrix = predict_matrix(model, read_matrix(args.infile, len(entries)))
    write_scores_csv(args.out, [e.image_id for e in entries], matrix)
    logger.info(
        "stage=predict images=%d classes=%d out=%s",
        len(entries), model.class_count, args.out,
    )
    return 0


def _cmd_evaluate(args) -> int:
    manifest = load_manifest(args.manifest)
    ids, matrix = read_scores_csv(args.scores)
    by_id = {e.image_id: e for e in manifest.entries}
    missing = [image_id for image_id in ids if image_id not in by_id]
    if missing:
        raise ValidationError(f"image '{missing[0]}' not present in manifest")
    report = pipeline.report_scores(
        matrix, [by_id[image_id] for image_id in ids], manifest.class_names,
        report_path=args.out,
    )
    sys.stdout.write(f"mAP={report.map_score!r} top1={report.top1_accuracy!r}\n")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    manifest = load_manifest(args.manifest)
    report = pipeline.run(manifest, cfg, args.out)
    sys.stdout.write(f"mAP={report.map_score!r} top1={report.top1_accuracy!r}\n")
    return 0


def _cmd_synth(args) -> int:
    spec = SynthSpec(**{f.name: getattr(args, f.name) for f in fields(SynthSpec)})
    manifest = generate_dataset(args.out, spec)
    logger.info(
        "stage=synth classes=%d images=%d out=%s",
        manifest.class_count, len(manifest.entries), args.out,
    )
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvforge",
        description=(
            "Activation-tensor recognition pipeline: view pooling, "
            "descriptor normalization, Fisher-vector encoding, two-stream "
            "fusion, linear classification, and AP/mAP evaluation."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help=f"between 1 and {MAX_THREADS}; every subcommand runs on one thread, "
        "so N changes no output",
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=("debug", "info", "warning", "error"),
        help="stderr logging threshold",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan-views", help="emit crop/flip/scale view geometry as CSV")
    p.add_argument("--width", type=int, required=True, help="source image width")
    p.add_argument("--height", type=int, required=True, help="source image height")
    p.add_argument("--scales", default="256,384,512", help="smallest-side sizes")
    p.add_argument("--crop", type=int, default=224, help="square crop side")
    p.add_argument("--no-flips", action="store_true", help="skip mirrored views")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_plan_views)

    p = sub.add_parser(
        "tdd", help="normalize a conv map and write its descriptor container"
    )
    p.add_argument("--in", dest="infile", required=True, help="rank-3 tensor file")
    p.add_argument("--mode", choices=VARIANTS, required=True)
    p.add_argument("--out", required=True, help="descriptor tensor (count x 1 x dim)")
    p.set_defaults(func=_cmd_tdd)

    p = sub.add_parser("fit-pca", help="fit a projection on descriptor files")
    _add_key_flags(p, "pca")
    p.add_argument("--out", required=True, help="model directory")
    p.add_argument("inputs", nargs="+", help="descriptor tensor files")
    p.set_defaults(func=_cmd_fit_pca)

    p = sub.add_parser("apply-pca", help="project one descriptor file")
    p.add_argument("--model", required=True, help="model directory")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_apply_pca)

    p = sub.add_parser("fit-gmm", help="fit a diagonal mixture on descriptor files")
    _add_key_flags(p, "gmm")
    p.add_argument("--out", required=True, help="model directory")
    p.add_argument("inputs", nargs="+", help="descriptor tensor files")
    p.set_defaults(func=_cmd_fit_gmm)

    p = sub.add_parser(
        "encode-fv", help="encode descriptor files of one image, pooling views"
    )
    p.add_argument("--gmm", required=True, help="mixture model directory")
    _add_key_flags(p, "normalize")
    p.add_argument("--out", required=True, help="rank-1 tensor file")
    p.add_argument("inputs", nargs="+", help="projected descriptor files (views)")
    p.set_defaults(func=_cmd_encode_fv)

    p = sub.add_parser("fuse", help="combine two streams' scores or features")
    p.add_argument("--mode", choices=("scores", "features"), required=True)
    p.add_argument("--alpha", default="1,1", help="object,scene weights")
    p.add_argument("--out", required=True)
    p.add_argument("inputs", nargs=2, help="object tensor, scene tensor")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser(
        "stack", help="pack one role's per-image vectors into a feature container"
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--role", required=True, choices=ROLES + ("all",))
    p.add_argument("--out", required=True, help="feature container (images x 1 x dim)")
    p.add_argument("dir", help="directory of <image_id>.fvt rank-1 vectors")
    p.set_defaults(func=_cmd_stack)

    p = sub.add_parser("train-svm", help="train one-vs-rest linear classifiers")
    p.add_argument("--manifest", required=True)
    p.add_argument(
        "--features", required=True,
        help="feature container of the train-role entries (`stack --role train`)",
    )
    _add_key_flags(p, "svm")
    p.add_argument("--out", required=True, help="model directory")
    p.set_defaults(func=_cmd_train_svm)

    p = sub.add_parser("predict", help="score features with a trained model")
    p.add_argument("--model", required=True, help="model directory")
    p.add_argument(
        "--in", dest="infile", required=True,
        help="feature container of the --role entries (`stack`)",
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--role", default="test", choices=ROLES + ("all",))
    p.add_argument("--out", required=True, help="scores CSV")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="AP/mAP/top-1 from a scores CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="report CSV path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("run", help="run a configured scenario end to end")
    p.add_argument("--config", help="INI config; defaults used when omitted")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--out", required=True)
    for f in fields(SynthSpec):  # one flag per spec field, typed by its default
        flag = "--" + f.name.replace("_", "-")
        p.add_argument(flag, type=type(f.default), default=f.default)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, args.log_level.upper()),
        format="%(message)s",
    )
    if not 1 <= args.threads <= MAX_THREADS:
        print(f"error: --threads must be between 1 and {MAX_THREADS}", file=sys.stderr)
        return 2
    with pipeline.pinned_blas():
        try:
            return args.func(args)
        except FvForgeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
