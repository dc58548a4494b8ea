"""The twelve acceptance episodes as one table, from the frozen models.

Renders the episodes of ``tests/conftest.py`` (``EPISODE_LENGTHS``,
family seeds ``7000 + i``, 4 eval negatives per sequence) and runs
``evaluate.run_episode`` on each at reps 3, as the acceptance fixture
does, but with the weak, strong and Δ-encoder models and donor pairs
of ``bench/frozen`` instead of training them.  It only reads that
folder.  Episode ``i`` runs at run seed ``i + offset`` for each given
offset.

    python3 tests/episode_table.py [--no-delta] [--offsets 0 100 200]

For each offset it prints one Markdown row per episode: the curated
window, the weak-label baseline's AUPRC and the detector's AUPRC per
rep.  A summary row follows: the mean and the median PSL AUPRC over the
episodes, the median relative improvement over the baseline in the
>= 5 s bin and in the < 3 s bin, and Spearman's ρ between difficulty
and relative improvement.  The bins and the two trend figures are those
``tests/test_acceptance.py`` gates.  ``--no-delta`` trains without
Δ-encoder positives, as ``seqshot enroll`` does.  Runs compare equal
only at the same OPENBLAS_NUM_THREADS.
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":      # this tree's package, whatever the path
    sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
from scipy import stats  # noqa: E402

from seqshot import augment, corpus, evaluate, pretrain  # noqa: E402

from conftest import EPISODE_LENGTHS  # noqa: E402

FROZEN = HERE.parent / "bench" / "frozen"
REPS = 3
EVAL_NEG_PER_SEQ = 4


def load_models(delta):
    weak = pretrain.WeakModel.load(FROZEN / "weak.ckpt")
    strong = pretrain.StrongModel.load(FROZEN / "strong.ckpt")
    if not delta:
        return evaluate.PretrainedModels(weak, strong, None, [])
    seqs = augment.load_train_set(FROZEN / "donors")
    return evaluate.PretrainedModels(
        weak, strong, augment.DeltaEncoder.load(FROZEN / "delta.ckpt"),
        [(seqs[j], seqs[j + 1]) for j in range(0, len(seqs) - 1, 2)])


def rel_improvement(r):
    return (r.psl_auprc - r.wl_auprc) / max(r.wl_auprc, 1e-12)


def summary(results):
    psl = [r.psl_auprc for r in results]
    short = [rel_improvement(r) for r in results if r.target_duration_s < 3]
    long = [rel_improvement(r) for r in results if r.target_duration_s >= 5]
    rho = stats.spearmanr([r.difficulty for r in results],
                          [rel_improvement(r) for r in results]).statistic
    return (f"| mean {np.mean(psl):.3f} | median {np.median(psl):.3f} "
            f"| long {np.median(long):.2f} ({len(long)}) "
            f"vs short {np.median(short):.2f} ({len(short)}) "
            f"| ρ {rho:.3f} |")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--no-delta", action="store_true",
                        help="train without Δ-encoder positives")
    parser.add_argument("--offsets", type=int, nargs="+", default=[0],
                        help="run-seed offsets; episode i runs at i + offset")
    args = parser.parse_args(argv)
    models = load_models(delta=not args.no_delta)
    with tempfile.TemporaryDirectory() as work:
        paths = [corpus.gen_episode(
            corpus.EpisodeSpec(family_seed=7000 + i,
                               eval_neg_per_seq=EVAL_NEG_PER_SEQ,
                               length_range=lengths), Path(work) / f"ep{i}")
            for i, lengths in enumerate(EPISODE_LENGTHS)]
        for offset in args.offsets:
            t0 = time.perf_counter()
            print(f"\nΔ {'off' if args.no_delta else 'on'}, run seeds "
                  f"i + {offset}, reps {REPS}\n")
            print("| family | window s | WL | PSL per rep |")
            print("| --- | --- | --- | --- |")
            results = []
            for i, path in enumerate(paths):
                r = evaluate.run_episode(evaluate.Episode(path), models,
                                         reps=REPS, seed=i + offset)
                results.append(r)
                reps = " / ".join(f"{a:.3f}" for a in r.psl_per_rep)
                print(f"| {7000 + i} | {r.target_duration_s:.2f} "
                      f"| {r.wl_auprc:.3f} | {reps} |", flush=True)
            print(f"\n{summary(results)} {time.perf_counter() - t0:.0f} s")


if __name__ == "__main__":
    main()
