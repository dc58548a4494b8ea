"""Pretraining walkthrough on a tiny synthetic corpus.

Renders a small weakly labeled dataset, trains the weak-label teacher,
distills a compact student, slides it over one clip to produce
pseudo-strong labels, and compares those windows against the exact
strong events the generator wrote down.

Runs in a few minutes on a laptop:  python3 demos/01_pretrain_pipeline.py
"""

import atexit
import shutil
import tempfile
from pathlib import Path

import numpy as np

from seqshot import corpus, pretrain

TINY = dict(channels=(4, 6, 8, 10, 12), head_hidden=16, embed_dim=8)

work = Path(tempfile.mkdtemp(prefix="seqshot_demo1_"))
atexit.register(shutil.rmtree, work)   # removed at exit, on an error too
print(f"working in {work}")

# 1. a 6-class corpus (4 motif families + pink/babble bursts), 8 clips each
cfg = corpus.PretrainConfig(n_classes=6, n_noise_classes=2,
                            clips_per_class=8, clip_duration_s=8.0, seed=7)
manifest = corpus.gen_pretrain_dataset(cfg, work / "data")
records = pretrain.load_manifest(manifest)
print(f"rendered {len(records)} clips")

# 2. weak-label teacher: clip-level multi-hot BCE
mc = pretrain.ModelConfig(n_classes=6, seed=7, **TINY)
# crops matching the 0.5 s pseudo-label window keep the classifier
# calibrated at the scale it will be slid at in step 4
tc = pretrain.TrainConfig(epochs=30, batch_size=16, crop_frames=48,
                          augment=False, seed=7)
teacher = pretrain.train_weak(records, 6, tc, model_config=mc)
print(f"teacher loss {teacher.loss_curve[0]:.3f} -> "
      f"{teacher.loss_curve[-1]:.3f}")

# 3. distillation: same loss plus per-class KL against the frozen teacher
student = pretrain.train_weak(records, 6, tc, model_config=mc,
                              teacher=teacher)
print(f"student loss {student.loss_curve[0]:.3f} -> "
      f"{student.loss_curve[-1]:.3f}")

# 4. pseudo-strong labels: 0.5 s windows at 0.1 s hops, threshold > 0.5
rec = records[0]
psl = pretrain.pseudo_label(student, rec.load())
print(f"\nclip {rec.wav_path.name} — true events:")
for c, on, off in rec.events:
    print(f"  class {int(c)}: {on:5.2f}–{off:5.2f} s")
for c in sorted({int(e[0]) for e in rec.events}):
    hits = np.flatnonzero(psl.labels[:, c])
    if hits.size:
        print(f"  class {c} windows fire {hits[0] * 0.1:.1f}–"
              f"{hits[-1] * 0.1 + 0.5:.1f} s ({hits.size} windows)")
    else:
        print(f"  class {c}: no windows fired (model undertrained)")
