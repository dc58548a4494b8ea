"""Binary file framing, and the checkpoint format.

Every binary file seqshot writes (checkpoints SQCK, embedding sequences
SQES) starts with one header, little-endian:
  magic (4 bytes) | u32 version | u32 sizes[n]
written by ``write_header`` and read by ``read_header``; ``read_exact``
reads a payload.  Their errors name the file (``f.name``).

Checkpoint layout (magic "SQCK", version 1, no sizes):
  header | u32 tag_len | tag utf-8 | u32 n_tensors
  then per tensor: u32 name_len | name utf-8 | u32 rank | u32 dims[rank]
  | f32 data (row-major)
"""

import math
import os
import struct

import numpy as np

from ..errors import (FormatError, TruncatedFileError, VersionMismatchError,
                      decoding)

MAGIC = b"SQCK"
VERSION = 1


def read_exact(f, n):
    """The next ``n`` bytes of the open file ``f``.  TruncatedFileError is
    raised before reading when fewer are left, so a size read from a
    malformed file cannot make the reader allocate more than the file
    holds."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise TruncatedFileError(f"{f.name}: expected {n} bytes, "
                                 f"{left} left")
    return f.read(n)


def write_header(f, magic, version, *sizes):
    f.write(magic)
    f.write(struct.pack(f"<{1 + len(sizes)}I", version, *sizes))


def read_header(f, magic, version, n_sizes):
    """Check a header's magic and version; returns its ``n_sizes`` sizes.

    Raises FormatError for another magic, VersionMismatchError for another
    version, and TruncatedFileError when the file ends inside the header.
    """
    found = f.read(len(magic))
    if found != magic:
        raise FormatError(f"{f.name}: bad magic {found!r}, expected "
                          f"{magic!r}")
    found, *sizes = struct.unpack(f"<{1 + n_sizes}I",
                                  read_exact(f, 4 * (1 + n_sizes)))
    if found != version:
        raise VersionMismatchError(f"{f.name}: {magic.decode()} version "
                                   f"{found} != {version}")
    return sizes


def _read_u32(f):
    return struct.unpack("<I", read_exact(f, 4))[0]


def _write_str(f, s):
    raw = s.encode("utf-8")
    f.write(struct.pack("<I", len(raw)))
    f.write(raw)


def _read_str(f):
    n = _read_u32(f)
    return read_exact(f, n).decode("utf-8")


def write_checkpoint(path, kind, tensors):
    """Write a name->array dict; data is stored as f32 little-endian."""
    with open(path, "wb") as f:
        write_header(f, MAGIC, VERSION)
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
    with open(path, "rb") as f, decoding(path):   # names not UTF-8
        read_header(f, MAGIC, VERSION, 0)
        kind = _read_str(f)
        n = _read_u32(f)
        tensors = {}
        for _ in range(n):
            name = _read_str(f)
            rank = _read_u32(f)
            dims = tuple(_read_u32(f) for _ in range(rank))
            raw = read_exact(f, 4 * math.prod(dims))
            tensors[name] = (
                np.frombuffer(raw, dtype="<f4").reshape(dims).astype(np.float64)
            )
    return kind, tensors
