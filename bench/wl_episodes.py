"""`episodes`: the paper's evaluation protocol, ``evaluate.run_episode``.

Three acceptance episodes, one per duration bin of the acceptance gate
(under 3 s, 3-5 s, 5 s or more), with the acceptance family seeds
``7000 + i``.  Family seed 7005 is one of them: its curation trims every
shot to a 0.36 s fragment, and the episode counts as failed until curation
is mended.  The families do not depend on the workload seed, so which
episodes fail does not either; the seed sets each episode's run seed
(``seed * 1000 + i``), which draws the reps' augmentation and detector
initialisation.  Models: the frozen weak, strong and Δ-encoder checkpoints
and donor pairs, with the default ``AugmentConfig`` (Δ-encoder positives
on).  Each episode is one operation.
"""

import json
import time
from types import SimpleNamespace

import numpy as np

from seqshot import augment, corpus, curation, evaluate, pretrain

import common
import oracles
from common import Checked, Op, Round

# (i, length range): acceptance episodes i of tests/conftest.py
EPISODES = ((0, (1.2, 1.6)), (5, (3.6, 4.0)), (8, (5.2, 5.8)))
EVAL_NEG_PER_SEQ = 2
REPS = 2


def load_models():
    d = common.FROZEN_DIR
    seqs = augment.load_train_set(d / "donors")
    return evaluate.PretrainedModels(
        weak=pretrain.WeakModel.load(d / "weak.ckpt"),
        strong=pretrain.StrongModel.load(d / "strong.ckpt"),
        delta=augment.DeltaEncoder.load(d / "delta.ckpt"),
        donor_pairs=[(seqs[j], seqs[j + 1])
                     for j in range(0, len(seqs) - 1, 2)])


def setup(work, seed):
    common.verify_frozen()
    st = SimpleNamespace()
    st.seed = seed
    st.models = load_models()
    st.episodes = []
    for i, lengths in EPISODES:
        spec = corpus.EpisodeSpec(family_seed=7000 + i,
                                  eval_neg_per_seq=EVAL_NEG_PER_SEQ,
                                  length_range=lengths)
        path = corpus.gen_episode(spec, work / f"ep{i}")
        st.episodes.append((i, path, json.loads(path.read_text())))
    return st


def run_round(st):
    ops, outputs = [], []
    t_round = time.perf_counter()
    for i, path, desc in st.episodes:
        curated = []
        inner = curation.curate

        def capture(*args, **kwargs):
            out = inner(*args, **kwargs)
            curated.append(out[0])
            return out

        curation.curate = capture
        try:
            t0 = time.perf_counter()
            result = evaluate.run_episode(evaluate.Episode(path), st.models,
                                          reps=REPS, seed=st.seed * 1000 + i)
            seconds = time.perf_counter() - t0
        finally:
            curation.curate = inner
        truth = [(e["event"][1], e["event"][2]) for e in desc["enrollment"]]
        ious = [oracles.iou((seg.onset_s, seg.offset_s), truth[seg.shot_id])
                for seg in curated[0]]
        ops.append(Op(f"episode {7000 + i}", seconds,
                      failed=not all(v > 0.5 for v in ious)))
        outputs.append((i, desc, result, ious))
    return Round(ops, time.perf_counter() - t_round, outputs)


def check_episode(desc, result, problems, where):
    """The protocol's properties on one episode's result."""
    train_reads = [kind for phase, kind, _ in result.audit
                   if phase == "train"]
    if not train_reads:
        problems.append(f"{where}: no audited reads in the train phase")
    if any(kind != "enrollment" for kind in train_reads):
        problems.append(f"{where}: evaluation audio read in the train phase")
    n_pos = sum(1 for e in desc["eval"] if e["label"] == 1)
    n_neg = len(desc["eval"]) - n_pos
    if (result.n_pos, result.n_neg) != (n_pos, n_neg):
        problems.append(f"{where}: n_pos/n_neg {result.n_pos}/{result.n_neg},"
                        f" descriptor has {n_pos}/{n_neg}")
    if len(result.psl_per_rep) != REPS or not all(
            0.0 <= v <= 1.0 for v in result.psl_per_rep):
        problems.append(f"{where}: psl_per_rep {result.psl_per_rep} is not "
                        f"{REPS} values in [0, 1]")


def check(st, rounds):
    problems, auprcs, ious = [], [], []
    for r in rounds:
        for i, desc, result, shot_ious in r.outputs:
            check_episode(desc, result, problems, f"episode {7000 + i}")
            auprcs.append(result.psl_auprc)
            ious += shot_ious
    figures = {
        "episode_s": (float(np.median([op.seconds for r in rounds
                                       for op in r.ops])), "s"),
        "episode_auprc": (float(np.median(auprcs)), "ratio"),
    }
    for op, (i, _, result, _) in zip(rounds[0].ops, rounds[0].outputs):
        name = f"episode_{7000 + i}"
        figures[f"{name}_s"] = (op.seconds, "s")
        figures[f"{name}_window_s"] = (result.target_duration_s, "s")
        figures[f"{name}_failed"] = (int(op.failed), "count")
    layer = {"curation.shot_iou_ok_ratio":
             float(np.mean([v > 0.5 for v in ious]))}
    return Checked(problems, figures, layer)
