"""Command-line entry point.

Every subcommand prints a one-object JSON summary on stdout and logs
progress to stderr.  Exit codes: 0 success, 1 runtime failure (bad
files, degenerate data), 2 usage or configuration errors.
"""

import argparse
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import augment, config, corpus, detector, dsp, evaluate, pretrain
from .errors import ConfigError, FormatError, SeqshotError, decoding

log = logging.getLogger("seqshot")


def _emit(summary):
    json.dump(summary, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


# Config table keys are the fields of the library configs built from them.
def _train_config(cfg):
    return pretrain.TrainConfig(seed=cfg["seed"], **cfg["train"])


def _model_config(cfg, n_classes, channels=None):
    m = cfg["model"]
    return pretrain.ModelConfig(
        **{**m, "channels": tuple(channels or m["channels"])},
        n_classes=n_classes, seed=cfg["seed"])


def _detector_train_config(cfg):
    return detector.DetectorTrainConfig(**cfg["detector"])


def _pretrained_models(args):
    """The frozen ``--weak`` and ``--strong`` models, without a
    Δ-encoder: Δ positives are made only through the library."""
    return evaluate.PretrainedModels(pretrain.WeakModel.load(args.weak),
                                     pretrain.StrongModel.load(args.strong),
                                     None, [])


def _window_s(path):
    """The scan window an ``enrollment.json`` records.  Its sample count
    must be finite too: the window's frame count is an integer."""
    with decoding(path):
        window_s = json.loads(Path(path).read_text())["window_s"]
    if isinstance(window_s, bool) or not isinstance(window_s, (int, float)) \
            or not 0 < window_s * dsp.SAMPLE_RATE < math.inf:
        raise FormatError(f"{path}: window_s {window_s!r} is not a number "
                          f"above 0 with a finite sample count")
    return window_s


def _save_trained(model, out, name, records, **extra):
    """Save a trained embedder as ``out/name`` and print its summary,
    with ``extra`` fields."""
    path = Path(out) / name
    model.save(path)
    _emit({"checkpoint": str(path), "clips": len(records),
           "final_loss": model.loss_curve[-1] if model.loss_curve else None,
           **extra})


def _n_classes(cfg):
    # total classes; the last corpus.N_NOISE_CLASSES of them are noise bursts
    return cfg["corpus"]["n_classes"]


# -- subcommands ----------------------------------------------------------------

def cmd_synth_corpus(args, cfg):
    spec = corpus.PretrainConfig(seed=cfg["seed"], **cfg["corpus"])
    manifest = corpus.gen_pretrain_dataset(spec, args.out)
    n_clips = sum(1 for line in manifest.read_text().splitlines()
                  if line.strip())
    _emit({"manifest": str(manifest), "clips": n_clips,
           "classes": _n_classes(cfg)})


def cmd_pretrain(args, cfg):
    records = pretrain.load_manifest(args.data)
    model = pretrain.train_weak(records, _n_classes(cfg), _train_config(cfg),
                                _model_config(cfg, _n_classes(cfg)))
    _save_trained(model, args.out, "teacher.ckpt", records)


def cmd_distill(args, cfg):
    records = pretrain.load_manifest(args.data)
    teacher = pretrain.WeakModel.load(args.teacher)
    student_cfg = _model_config(cfg, teacher.config.n_classes,
                                channels=cfg["distill"]["channels"])
    model = pretrain.distill(teacher, student_cfg, records,
                             _train_config(cfg))
    _save_trained(model, args.out, "student.ckpt", records)


def cmd_train_strong(args, cfg):
    records = pretrain.load_manifest(args.data)
    labeler = pretrain.WeakModel.load(args.labeler)
    student = pretrain.WeakModel.load(args.student)
    pseudo = [pretrain.pseudo_label(labeler, r.load()) for r in records]
    model = pretrain.train_strong(student, records, pseudo,
                                  _train_config(cfg))
    # total > 0: train_strong refuses an empty dataset and labels of no window
    total = sum(psl.labels.size for psl in pseudo)
    positive = sum(int(psl.labels.sum()) for psl in pseudo)
    _save_trained(model, args.out, "strong.ckpt", records,
                  positive_rate=positive / total)


def cmd_enroll(args, cfg):
    if not args.shots:
        raise ConfigError("enroll needs at least one shot")
    models = _pretrained_models(args)
    shots = [dsp.load_wav(p) for p in args.shots]
    enrolled = evaluate.enroll(shots, models, [cfg["seed"]],
                               augment.AugmentConfig(**cfg["augment"]),
                               _detector_train_config(cfg))
    out = Path(args.out)
    enrolled.detectors[0].save(out / "detector.ckpt")
    enrollment = {
        "window_s": enrolled.window_s,
        "segments": [[s.shot_id, s.onset_s, s.offset_s]
                     for s in enrolled.segments],
        "curation": enrolled.curation_report,
        "train_items": enrolled.train_items[0],
    }
    (out / "enrollment.json").write_text(
        json.dumps(enrollment, indent=1, sort_keys=True) + "\n")
    _emit({"detector": str(out / "detector.ckpt"),
           "enrollment": str(out / "enrollment.json"),
           "window_s": enrolled.window_s,
           "train_items": enrolled.train_items[0]})


def cmd_detect(args, cfg):
    net = detector.DetectorNet.load(args.detector)
    strong = pretrain.StrongModel.load(args.strong)
    window_s = _window_s(args.enrollment)
    scored = detector.detect_stream(net, strong, args.recording, window_s)
    events = [[t, s] for t, s in scored if s > args.threshold]
    _emit({"recording": str(args.recording),
           "window_s": window_s,
           "n_windows": len(scored),
           "max_score": max(s for _, s in scored),
           "events": events})


def cmd_evaluate(args, cfg):
    models = _pretrained_models(args)
    aug_cfg = augment.AugmentConfig(**cfg["augment"])
    results = []
    for ep_dir in args.episodes:
        descriptor = Path(ep_dir) / "episode.json"
        episode = evaluate.Episode(descriptor)
        log.info("episode %s: %d eval clips", ep_dir, len(episode.eval_items))
        results.append(evaluate.run_episode(
            episode, models, reps=cfg["evaluate"]["reps"], seed=cfg["seed"],
            augment_config=aug_cfg,
            train_config=_detector_train_config(cfg)))
    out = Path(args.out)
    per_ep, summary = evaluate.report(results, out / "episodes.csv")
    _emit({
        "report": str(per_ep),
        "summary": str(summary),
        "episodes": [
            {"psl_auprc": r.psl_auprc, "wl_auprc": r.wl_auprc,
             "difficulty": r.difficulty,
             "target_duration_s": r.target_duration_s}
            for r in results
        ],
        "median_psl_auprc": float(np.median([r.psl_auprc for r in results])),
        "median_wl_auprc": float(np.median([r.wl_auprc for r in results])),
    })


# -- argument parsing -------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="seqshot",
        description="Few-shot acoustic sequence detection toolkit.")
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        help="dotted config override, e.g. train.epochs=5")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-corpus", help="render a synthetic dataset")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth_corpus)

    p = sub.add_parser("pretrain", help="train the weak-label teacher")
    p.add_argument("--data", required=True, help="dataset manifest (JSONL)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("distill", help="distill a compact student")
    p.add_argument("--data", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("train-strong", help="train the frame-level model")
    p.add_argument("--data", required=True)
    p.add_argument("--labeler", required=True,
                   help="weak model whose window-level pseudo labels "
                        "the strong model trains on")
    p.add_argument("--student", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_strong)

    p = sub.add_parser("enroll", help="build a detector from a few shots")
    p.add_argument("--shots", nargs="*", default=[], help="enrollment wavs")
    p.add_argument("--weak", required=True)
    p.add_argument("--strong", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("detect", help="scan a recording")
    p.add_argument("--recording", required=True)
    p.add_argument("--detector", required=True)
    p.add_argument("--strong", required=True)
    p.add_argument("--enrollment", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="run the episode protocol")
    p.add_argument("--episodes", nargs="+", required=True,
                   help="episode directories")
    p.add_argument("--weak", required=True)
    p.add_argument("--strong", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None):
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config.load_config(args.config, args.set, seed=args.seed)
        out = getattr(args, "out", None)
        if out:
            Path(out).mkdir(parents=True, exist_ok=True)
        args.func(args, cfg)
        if out:     # only a run that succeeded records its config
            config.echo_config(cfg, out)
    except ConfigError as e:
        log.error("%s", e)
        return 2
    except (SeqshotError, OSError) as e:
        log.error("%s", e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
