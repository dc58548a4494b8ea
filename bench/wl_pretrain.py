"""`pretrain`: the pretraining chain on a seeded synthetic corpus.

One round runs four stages, each one operation: ``train_weak`` (the teacher,
48-frame crops, no augmentation), ``distill`` (a student trained against the
teacher with the signal-domain augmentation the CLI turns on by default),
``pseudo_label`` (every training clip, with the teacher) and
``train_strong`` (the frame model on full clips, from the student).  Model
and crop settings are those of the acceptance recipe; clips and epochs are
fewer.
"""

import time
from types import SimpleNamespace

import numpy as np

from seqshot import corpus, dsp, pretrain

import oracles
from common import Checked, Op, Round, timed

N_CLASSES = 12
TRAIN_CLIPS, HELD_OUT_CLIPS = 4, 2      # per class
MODEL = dict(channels=(8, 12, 16, 24, 32), head_hidden=64, embed_dim=32)
WEAK = dict(epochs=24, batch_size=8, crop_frames=48, augment=False)
DISTILL = dict(epochs=2, batch_size=8, crop_frames=48, augment=True)
STRONG = dict(epochs=6, batch_size=8, crop_frames=998, augment=False)


def _split(records):
    per_class = TRAIN_CLIPS + HELD_OUT_CLIPS
    train = [r for i, r in enumerate(records) if i % per_class < TRAIN_CLIPS]
    held = [r for i, r in enumerate(records) if i % per_class >= TRAIN_CLIPS]
    return train, held


def setup(work, seed):
    cfg = corpus.PretrainConfig(n_classes=N_CLASSES,
                                clips_per_class=TRAIN_CLIPS + HELD_OUT_CLIPS,
                                seed=seed)
    return SimpleNamespace(
        work=work, seed=seed,
        manifest=corpus.gen_pretrain_dataset(cfg, work / "corpus"))


def run_round(state):
    seed = state.seed
    model = pretrain.ModelConfig(n_classes=N_CLASSES, seed=seed, **MODEL)
    ops = []
    t0 = time.perf_counter()
    # a fresh read of the manifest, so every round loads its audio
    (train, held), t_load = timed(
        lambda: _split(pretrain.load_manifest(state.manifest)))
    teacher, t = timed(pretrain.train_weak, train, N_CLASSES,
                       pretrain.TrainConfig(seed=seed, **WEAK), model)
    ops.append(Op("train_weak", t_load + t))
    student, t = timed(pretrain.distill, teacher, model, train,
                       pretrain.TrainConfig(seed=seed, **DISTILL))
    ops.append(Op("distill", t))
    pseudo, t = timed(lambda: [pretrain.pseudo_label(teacher, r.load())
                               for r in train])
    ops.append(Op("pseudo_label", t))
    strong, t = timed(pretrain.train_strong, student, train, pseudo,
                      pretrain.TrainConfig(seed=seed, **STRONG))
    ops.append(Op("train_strong", t))
    seconds = time.perf_counter() - t0
    return Round(ops, seconds, dict(train=train, held=held, teacher=teacher,
                                    student=student, pseudo=pseudo,
                                    strong=strong))


def _pseudo_f1(train, pseudo):
    tp = fp = fn = 0
    for r, psl in zip(train, pseudo):
        gt = oracles.pseudo_window_truth(r.events, psl.labels.shape[0],
                                         N_CLASSES)
        pred = psl.labels.astype(bool)
        tp += int(np.sum(pred & gt))
        fp += int(np.sum(pred & ~gt))
        fn += int(np.sum(~pred & gt))
    return oracles.f1(tp, fp, fn)


def _strong_logits(strong, w):
    x = dsp.logmel(w)[None, None]
    return strong.forward(x)[0][0].T            # (frames, classes)


def _frame_map(strong, held):
    scores, truth = [], []
    for r in held:
        logits = _strong_logits(strong, r.load())
        scores.append(logits)
        truth.append(oracles.frame_truth(r.events, logits.shape[0], N_CLASSES))
    return oracles.mean_ap(np.vstack(scores), np.vstack(truth))


def check_round(out, work):
    """Problems with one round's outputs, and its two quality figures."""
    problems = []
    for name in ("teacher", "student", "strong"):
        curve = np.asarray(out[name].loss_curve, float)
        if not np.all(np.isfinite(curve)):
            problems.append(f"{name}: non-finite loss")
        elif not curve[-1] < curve[0]:
            problems.append(f"{name}: last epoch loss {curve[-1]:.4f} not "
                            f"below the first {curve[0]:.4f}")
    for r, psl in zip(out["train"], out["pseudo"]):
        want = oracles.n_pseudo_windows(len(r.load().samples))
        if psl.labels.shape != (want, N_CLASSES):
            problems.append(f"{r.wav_path.name}: {psl.labels.shape[0]} "
                            f"pseudo-label windows, want {want}")
    for r in out["held"]:
        w = r.load()
        frames = pretrain.embed_frames(out["strong"], w)
        want = oracles.n_embed_frames(len(w.samples))
        if frames.shape[0] != want:
            problems.append(f"{r.wav_path.name}: {frames.shape[0]} strong "
                            f"embedding frames, want {want}")
    # checkpoints hold float32: after the first save a save/load cycle is exact
    w = out["held"][0].load()
    once, twice = work / "once.ckpt", work / "twice.ckpt"
    out["strong"].save(once)
    loaded = pretrain.StrongModel.load(once)
    loaded.save(twice)
    reloaded = pretrain.StrongModel.load(twice)
    if not np.array_equal(_strong_logits(loaded, w),
                          _strong_logits(reloaded, w)):
        problems.append("strong checkpoint: reloaded logits differ")
    return problems, _pseudo_f1(out["train"], out["pseudo"]), \
        _frame_map(out["strong"], out["held"])


def check(state, rounds):
    problems, f1s, maps = [], [], []
    for r in rounds:
        p, f1, m = check_round(r.outputs, state.work)
        problems += p
        f1s.append(f1)
        maps.append(m)
    stage_s = {op.name: [] for op in rounds[0].ops}
    for r in rounds:
        for op in r.ops:
            stage_s[op.name].append(op.seconds)
    figures = {"pretrain_s": (float(np.median([r.seconds for r in rounds])),
                              "s"),
               "pseudo_label_f1": (float(np.median(f1s)), "ratio"),
               "strong_frame_map": (float(np.median(maps)), "ratio"),
               **{f"{k}_s": (float(np.median(v)), "s")
                  for k, v in stage_s.items()}}
    return Checked(problems, figures)
