"""Shared paths, thread limits and helpers for the benchmark scripts.

Importing this module caps the BLAS thread pools at the number of cores
this process may run on; it must be imported before numpy.
"""

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

HERE = Path(__file__).resolve().parent
FROZEN_DIR = HERE / "frozen"
DIGESTS = FROZEN_DIR / "DIGESTS.json"


def reset_dir(path):
    """Empty ``path`` (creating it if needed)."""
    path = Path(path)
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _frozen_files():
    return sorted(p for p in FROZEN_DIR.rglob("*")
                  if p.is_file() and p != DIGESTS)


def write_digests():
    digests = {p.relative_to(FROZEN_DIR).as_posix(): _sha256(p)
               for p in _frozen_files()}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def remove_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    parent = Path(path).parent
    if parent.exists() and not any(parent.iterdir()):
        parent.rmdir()


def verify_frozen():
    """Refuse frozen inputs whose bytes differ from the recorded digests."""
    if not DIGESTS.exists():
        raise SystemExit(f"bench: {DIGESTS} is missing; run bench/freeze.py")
    want = json.loads(DIGESTS.read_text())
    have = {p.relative_to(FROZEN_DIR).as_posix() for p in _frozen_files()}
    if have != set(want):
        raise SystemExit(f"bench: frozen files {sorted(have ^ set(want))} "
                         "differ from DIGESTS.json")
    for rel, digest in want.items():
        if _sha256(FROZEN_DIR / rel) != digest:
            raise SystemExit(f"bench: {rel} does not match its digest")


@dataclass
class Op:
    """One operation of a round: a stage, a CLI call or an episode."""
    name: str
    seconds: float
    failed: bool = False


@dataclass
class Round:
    ops: list
    seconds: float
    outputs: dict = field(default_factory=dict)


@dataclass
class Checked:
    problems: list            # failed checks; any makes the run incorrect
    figures: dict             # the workload's named figures: name -> (value, unit)
    layer_figures: dict = field(default_factory=dict)   # per-layer extras


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0
