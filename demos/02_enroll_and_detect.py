"""Few-shot enrollment walkthrough, library-level.

Pretrains tiny weak + frame-embedding models, then runs the few-shot
side on one synthetic episode with ``evaluate.enroll``: curate the K
unsegmented shots, expand the curated segments into a training set
(positives by time shift, negatives by masking/shuffling the positives
themselves), train the detector on them by binary cross-entropy, and
stream it over an evaluation clip with the scan window the enrollment
decided.

Runs in a few minutes on a laptop:  python3 demos/02_enroll_and_detect.py
"""

import atexit
import json
import shutil
import tempfile
from pathlib import Path

from seqshot import augment, corpus, detector, dsp, evaluate, pretrain

TINY = dict(channels=(4, 6, 8, 10, 12), head_hidden=16, embed_dim=8)

work = Path(tempfile.mkdtemp(prefix="seqshot_demo2_"))
atexit.register(shutil.rmtree, work)   # removed at exit, on an error too
print(f"working in {work}")

# -- pretraining (tiny, just enough to give embeddings some structure) -----
cfg = corpus.PretrainConfig(n_classes=6, clips_per_class=8,
                            clip_duration_s=8.0, seed=5)
records = pretrain.load_manifest(corpus.gen_pretrain_dataset(cfg, work / "d"))
mc = pretrain.ModelConfig(n_classes=6, seed=5, **TINY)
tc = pretrain.TrainConfig(epochs=6, batch_size=8, crop_frames=798,
                          augment=False, seed=5)
weak = pretrain.train_weak(records, 6, tc, model_config=mc)
pseudo = [pretrain.pseudo_label(weak, r.load()) for r in records]
strong = pretrain.train_strong(weak, records, pseudo, tc)
print("pretraining done")

# -- one episode: 3 unsegmented shots, 12 eval clips -----------------------
spec = corpus.EpisodeSpec(family_seed=42, eval_neg_per_seq=1,
                          length_range=(2.0, 3.0))
desc = json.loads(corpus.gen_episode(spec, work / "ep").read_text())
shots = [dsp.load_wav(work / "ep" / e["wav"]) for e in desc["enrollment"]]

# -- enrollment: curate the shots, expand the curated segments into a
# training set from the positives alone, train the detector ---------------
models = evaluate.PretrainedModels(weak=weak, strong=strong, delta=None,
                                   donor_pairs=[])
# no Δ-encoder (delta=None), so no Δ positives
aug = augment.AugmentConfig(n_time_shift=6, n_masked=6, n_shuffled=6)
dtc = detector.DetectorTrainConfig(epochs=60)
enrolled = evaluate.enroll(shots, models, seeds=[0], augment_config=aug,
                           train_config=dtc)
for seg in enrolled.segments:
    print(f"shot {seg.shot_id}: target at {seg.onset_s:.2f}-"
          f"{seg.offset_s:.2f} s")
print(f"train set: {enrolled.train_items[0]} sequences, "
      f"scan window {enrolled.window_s:.2f} s")
net = enrolled.detectors[0]

# -- stream over one positive and one negative eval clip -------------------
for item in (desc["eval"][0], desc["eval"][-1]):
    scores = detector.detect_stream(net, strong, work / "ep" / item["wav"],
                                    enrolled.window_s)
    t, s = max(scores, key=lambda p: p[1])
    kind = "positive" if item["label"] else "negative"
    print(f"{kind} clip: peak score {s:.3f} at {t:.2f} s")
