"""The CLI pipeline at a tiny recipe, and the SHA-256 of all it writes.

``run_pipeline`` renders a small episode and runs all seven subcommands
through ``cli.main``: synth-corpus, pretrain, distill, train-strong,
enroll, detect on every eval clip of the episode, and evaluate.  It
returns every file written under its root and each command's stdout,
with the root's path replaced by ``<root>``, so runs in different
directories compare byte for byte.

    python3 tests/pipeline_digests.py --seed N

prints one ``<sha256>  <output>`` line per output of a run at seed N,
using the package of the source tree the script sits in.  Two trees
compare equal only at the same OPENBLAS_NUM_THREADS: the BLAS thread
count changes the trained detectors.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":      # this tree's package, whatever the path
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from seqshot import cli, corpus  # noqa: E402

TINY_RUN = [
    "--set", "corpus.n_classes=4",
    "--set", "corpus.clips_per_class=2",
    "--set", "corpus.clip_duration_s=6.0",
    "--set", "model.channels=[4,6,8,10,12]",
    "--set", "model.head_hidden=16",
    "--set", "model.embed_dim=8",
    "--set", "distill.channels=[4,6,8,10,12]",
    "--set", "train.epochs=1",
    "--set", "train.batch_size=8",
    "--set", "train.crop_frames=298",
    "--set", "detector.epochs=2",
    "--set", "evaluate.reps=1",
]


def run_pipeline(root, seed=0):
    """Run the pipeline under ``root`` with run seed ``seed``; returns
    {output name: bytes}: each file under ``root`` by its relative path,
    and ``stdout/<command>`` for each command."""
    root = Path(root)
    stdout = {}

    def run(name, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--seed", str(seed), *TINY_RUN, *argv])
        if code != 0:
            raise RuntimeError(f"{name} exited with code {code}")
        stdout[f"stdout/{name}"] = \
            buf.getvalue().replace(str(root), "<root>").encode()
        return json.loads(buf.getvalue())

    spec = corpus.EpisodeSpec(family_seed=77, eval_neg_per_seq=1,
                              length_range=(1.5, 2.5))
    episode = json.loads(corpus.gen_episode(spec, root / "ep").read_text())
    manifest = run("synth-corpus", ["synth-corpus",
                                    "--out", str(root / "data")])["manifest"]
    teacher = run("pretrain", ["pretrain", "--data", manifest,
                               "--out", str(root / "t")])["checkpoint"]
    student = run("distill", ["distill", "--data", manifest,
                              "--teacher", teacher,
                              "--out", str(root / "d")])["checkpoint"]
    strong = run("train-strong", ["train-strong", "--data", manifest,
                                  "--labeler", teacher, "--student", student,
                                  "--out", str(root / "s")])["checkpoint"]
    shots = [str(root / "ep" / e["wav"]) for e in episode["enrollment"]]
    enrolled = run("enroll", ["enroll", "--shots", *shots, "--weak", teacher,
                              "--strong", strong, "--out", str(root / "e")])
    for item in episode["eval"]:
        run(f"detect/{item['wav']}",
            ["detect", "--recording", str(root / "ep" / item["wav"]),
             "--detector", enrolled["detector"], "--strong", strong,
             "--enrollment", enrolled["enrollment"]])
    run("evaluate", ["evaluate", "--episodes", str(root / "ep"),
                     "--weak", teacher, "--strong", strong,
                     "--out", str(root / "r")])
    files = {p.relative_to(root).as_posix(): p.read_bytes()
             for p in sorted(root.rglob("*")) if p.is_file()}
    return {**files, **stdout}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="run seed")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        outputs = run_pipeline(work, args.seed)
    for name, data in outputs.items():
        print(f"{hashlib.sha256(data).hexdigest()}  {name}")


if __name__ == "__main__":
    main()
