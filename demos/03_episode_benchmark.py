"""Episode benchmark: margin detector vs. pooled-cosine baseline.

Runs the audited episode protocol on a few synthetic episodes of
different target durations and prints AUPRC for the frame-sequence
detector (PSL) against the pooled-embedding cosine baseline (WL),
plus the no-negative-audio audit result.

Runs in a few minutes on a laptop:  python3 demos/03_episode_benchmark.py
"""

import atexit
import shutil
import tempfile
from pathlib import Path

import numpy as np

from seqshot import augment, corpus, detector, evaluate, pretrain

TINY = dict(channels=(4, 6, 8, 10, 12), head_hidden=16, embed_dim=8)

work = Path(tempfile.mkdtemp(prefix="seqshot_demo3_"))
atexit.register(shutil.rmtree, work)   # removed at exit, on an error too
print(f"working in {work}")

# tiny pretraining shared across all episodes (frozen before any is seen)
cfg = corpus.PretrainConfig(n_classes=6, n_noise_classes=2,
                            clips_per_class=8, clip_duration_s=8.0, seed=5)
records = pretrain.load_manifest(corpus.gen_pretrain_dataset(cfg, work / "d"))
mc = pretrain.ModelConfig(n_classes=6, seed=5, **TINY)
tc = pretrain.TrainConfig(epochs=6, batch_size=8, crop_frames=798,
                          augment=False, seed=5)
weak = pretrain.train_weak(records, 6, tc, model_config=mc)
pseudo = [pretrain.pseudo_label(weak, r.load()) for r in records]
strong = pretrain.train_strong(weak, records, pseudo, tc)
models = evaluate.PretrainedModels(weak=weak, strong=strong,
                                   delta=None, donor_pairs=[])
print("pretraining done")

aug = augment.AugmentConfig(n_time_shift=4, n_masked=4, n_shuffled=4)
dtc = detector.DetectorTrainConfig(epochs=60, seed=0)

results = []
for i, (lo, hi) in enumerate([(1.5, 2.5), (3.5, 4.5), (6.0, 7.5)]):
    spec = corpus.EpisodeSpec(family_seed=100 + i, eval_neg_per_seq=2,
                              length_range=(lo, hi))
    ep = evaluate.Episode(corpus.gen_episode(spec, work / f"ep{i}"))
    r = evaluate.run_episode(ep, models, reps=2, seed=i,
                             augment_config=aug, train_config=dtc)
    results.append(r)
    bad = [a for a in r.audit if a[0] == "train" and a[1] == "eval"]
    print(f"episode {i}: target {r.target_duration_s:.1f} s  "
          f"PSL {r.psl_auprc:.3f}  WL {r.wl_auprc:.3f}  "
          f"difficulty {r.difficulty:.2f}  "
          f"eval reads during training: {len(bad)}")

evaluate.report(results, work / "report" / "episodes.csv")
print(f"\nCSV report in {work / 'report'}")
