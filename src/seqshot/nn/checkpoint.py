"""Checkpoint file format.

Layout (little-endian throughout):
  magic "SQCK" | u32 version=1 | u32 tag_len | tag utf-8 | u32 n_tensors
  then per tensor: u32 name_len | name utf-8 | u32 rank | u32 dims[rank]
  | f32 data (row-major)
"""

import struct

import numpy as np

from ..errors import (
    FormatError,
    TruncatedFileError,
    UnknownTensorError,
    VersionMismatchError,
)

MAGIC = b"SQCK"
VERSION = 1


def _read_exact(f, n):
    buf = f.read(n)
    if len(buf) != n:
        raise TruncatedFileError(f"expected {n} bytes, got {len(buf)}")
    return buf


def _read_u32(f):
    return struct.unpack("<I", _read_exact(f, 4))[0]


def _write_str(f, s):
    raw = s.encode("utf-8")
    f.write(struct.pack("<I", len(raw)))
    f.write(raw)


def _read_str(f):
    n = _read_u32(f)
    return _read_exact(f, n).decode("utf-8")


def write_checkpoint(path, kind, tensors):
    """Write a name->array dict; data is stored as f32 little-endian."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        _write_str(f, kind)
        f.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            a = np.ascontiguousarray(arr, dtype="<f4")
            _write_str(f, name)
            f.write(struct.pack("<I", a.ndim))
            for d in a.shape:
                f.write(struct.pack("<I", d))
            f.write(a.tobytes())


def read_checkpoint(path):
    """Read a checkpoint; returns (kind, name->float64 array dict)."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        version = _read_u32(f)
        if version != VERSION:
            raise VersionMismatchError(f"checkpoint version {version} != {VERSION}")
        kind = _read_str(f)
        n = _read_u32(f)
        tensors = {}
        for _ in range(n):
            name = _read_str(f)
            rank = _read_u32(f)
            dims = tuple(_read_u32(f) for _ in range(rank))
            count = int(np.prod(dims, dtype=np.int64)) if dims else 1
            raw = _read_exact(f, 4 * count)
            tensors[name] = (
                np.frombuffer(raw, dtype="<f4").reshape(dims).astype(np.float64)
            )
    return kind, tensors


def save_checkpoint(graph, path, kind="graph", extra=None):
    """Save a Graph's parameters (plus optional extra tensors)."""
    tensors = dict(graph.params())
    if extra:
        tensors.update(extra)
    write_checkpoint(path, kind, tensors)


def load_params(checkpoint, kind, build, meta_keys=()):
    """Load a checkpoint into a freshly built model, checking every tensor.

    ``checkpoint`` is the (kind, tensors) pair ``read_checkpoint`` returns.
    ``build(meta)`` gets the ``meta/`` tensors and returns the model to
    fill: anything with ``params()`` (name -> array, written in place) and
    ``mark_updated()``.  Nothing is written unless every check passes.
    Returns (model, meta).

    Raises FormatError when the kind is not ``kind`` (None accepts any),
    when one of ``meta_keys`` is missing, when a tensor's shape differs
    from its parameter's, or when a parameter has no tensor; and
    UnknownTensorError for a tensor that is neither a parameter nor
    ``meta/``.
    """
    found, tensors = checkpoint
    if kind is not None and found != kind:
        raise FormatError(f"checkpoint kind {found!r}, expected {kind!r}")
    meta = {k: v for k, v in tensors.items() if k.startswith("meta/")}
    missing = sorted(set(meta_keys) - set(meta))
    if missing:
        raise FormatError(f"checkpoint missing meta tensors: {missing}")
    model = build(meta)
    params = model.params()
    for name, arr in tensors.items():
        if name in meta:
            continue
        if name not in params:
            raise UnknownTensorError(f"unknown tensor {name!r}")
        if params[name].shape != arr.shape:
            raise FormatError(
                f"tensor {name!r} shape {arr.shape} != {params[name].shape}"
            )
    missing = sorted(set(params) - set(tensors))
    if missing:
        raise FormatError(f"checkpoint missing tensors: {missing}")
    for name, arr in params.items():
        arr[...] = tensors[name]
    model.mark_updated()
    return model, meta


def load_checkpoint(path, graph, expect_kind=None):
    """Load parameters into an architecture-matching graph, in place.

    Returns (graph, extra) where extra holds tensors not owned by any
    layer but prefixed "meta/"; see ``load_params`` for the checks.
    """
    return load_params(read_checkpoint(path), expect_kind, lambda meta: graph)
