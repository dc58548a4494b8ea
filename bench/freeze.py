"""Build the frozen models that the `enroll-scan` and `episodes` workloads read.

Follows the acceptance recipe of ``tests/conftest.py`` with the same configs
and seeds: a 504-clip corpus, the weak teacher (100 epochs of 48-frame
crops), its pseudo-labels, the strong frame model (10 epochs of full clips)
and the Δ-encoder trained on 24 near/far donor pairs.  Writes
``bench/frozen/{weak,strong,delta}.ckpt``, the donor pairs under
``bench/frozen/donors/`` and ``bench/frozen/DIGESTS.json`` (SHA-256 of each
file).  Takes about 8 minutes on 2 cores.

    python3 bench/freeze.py
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import common  # noqa: E402  (sets the BLAS thread limit before numpy loads)

import numpy as np  # noqa: E402

from seqshot import augment, corpus, pretrain  # noqa: E402

# tests/conftest.py, acceptance scale
ACCEPT_MODEL = dict(channels=(8, 12, 16, 24, 32), head_hidden=64,
                    embed_dim=32)
ACCEPT_TRAIN_WEAK = dict(epochs=100, batch_size=64, crop_frames=48,
                         augment=False, seed=0)
ACCEPT_TRAIN_STRONG = dict(epochs=10, batch_size=32, crop_frames=998,
                           augment=False, seed=0)
N_CLASSES = 12


def render_donor_pair(motif, rng, strong):
    """(near-field, far-field) normalized embedding sequences of one event."""
    seqs = []
    for field in ("near", "far"):
        sc = corpus.SceneSpec(duration_s=motif.duration_s + 1.0,
                              background="pink", snr_db=18.0,
                              insert_time_s=0.5, field=field, rt60_s=0.5)
        w, _, _ = corpus.render_scene(motif, sc, rng)
        frames = pretrain.embed_frames_normalized(strong, w)
        seqs.append(augment.EmbeddingSequence(frames, 1, "curated"))
    return tuple(seqs)


def main():
    out = common.FROZEN_DIR
    work = HERE / "_work" / "freeze"
    common.reset_dir(work)
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.time()

    def done(what):
        nonlocal stamp
        now = time.time()
        print(f"{what}: {now - stamp:.1f} s", file=sys.stderr, flush=True)
        stamp = now

    manifest = corpus.gen_pretrain_dataset(corpus.PretrainConfig(seed=0),
                                           work / "corpus")
    records = pretrain.load_manifest(manifest)
    done(f"corpus ({len(records)} clips)")
    mc = pretrain.ModelConfig(n_classes=N_CLASSES, seed=0, **ACCEPT_MODEL)
    weak = pretrain.train_weak(records, N_CLASSES,
                               pretrain.TrainConfig(**ACCEPT_TRAIN_WEAK),
                               model_config=mc)
    done("weak")
    pseudo = [pretrain.pseudo_label(weak, r.load()) for r in records]
    done("pseudo-labels")
    strong = pretrain.train_strong(weak, records, pseudo,
                                   pretrain.TrainConfig(**ACCEPT_TRAIN_STRONG))
    done("strong")
    rng = np.random.default_rng(99)
    pairs = []
    for i in range(12):
        fam = corpus.gen_motif_family(family_seed=50_000 + i, n_sequences=2,
                                      length_range=(2.0, 5.0))
        pairs.extend(render_donor_pair(m, rng, strong) for m in fam)
    delta = augment.train_delta(
        pairs, augment.DeltaConfig(z_dim=8, hidden=64, epochs=150, seed=0))
    done("delta")

    weak.save(out / "weak.ckpt")
    strong.save(out / "strong.ckpt")
    delta.save(out / "delta.ckpt")
    common.reset_dir(out / "donors")
    augment.save_train_set(out / "donors", [s for p in pairs for s in p])
    common.write_digests()
    common.remove_dir(work)
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
