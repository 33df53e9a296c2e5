"""Bounded ``.npz`` reader for untrusted array bundles.

``np.load`` trusts each member's ``.npy`` header: a member whose header
claims shape ``(10**13,)`` makes it attempt an 80 TB allocation
(``MemoryError``), and a smaller forged shape allocates the full array
before failing on EOF.  :func:`load_npz` checks every claim against the
zip directory first — the header's shape × itemsize plus the header's
own length must equal the member's stored ``file_size``, and that size
must be one the archive can actually hold — so a forged, truncated or
overlong member raises ``ValueError`` before any array is allocated.

Reads still go through :mod:`zipfile`, so a member's CRC-32 is checked
when its last byte is read (``zipfile.BadZipFile`` on mismatch).  Both
stored (``np.savez``) and deflated archives are accepted.
"""

from __future__ import annotations

import math
import os
import zipfile
from typing import BinaryIO

import numpy as np

__all__ = ["load_npz"]

# zlib's deflate cannot expand data by more than ~1032:1, so a deflated
# member claiming more is forged; a stored member is its own size.
_MAX_EXPANSION = {zipfile.ZIP_STORED: 1, zipfile.ZIP_DEFLATED: 1032}
_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}
_READ_CHUNK = 1 << 18  # bytes per read (numpy's own buffer size): bounds the transient copy


def load_npz(file: "str | os.PathLike[str] | BinaryIO") -> dict[str, np.ndarray]:
    """Every array member of an ``.npz`` archive, keyed without ``.npy``.

    Raises:
        ValueError: a member is not a plain ``.npy`` array, holds an
            object dtype, or its header disagrees with the zip directory.
        zipfile.BadZipFile: not a zip archive, or a member fails its CRC.
        EOFError, OSError: the archive ends before a member's data does.
    """
    with zipfile.ZipFile(file) as archive:
        archive_size = archive.fp.seek(0, os.SEEK_END)
        return {
            info.filename[: -len(".npy")]: _read_member(archive, info, archive_size)
            for info in archive.infolist()
        }


def _read_member(archive: zipfile.ZipFile, info: zipfile.ZipInfo, archive_size: int) -> np.ndarray:
    name = info.filename
    if not name.endswith(".npy"):
        raise ValueError(f"member {name!r} is not an .npy array")
    expansion = _MAX_EXPANSION.get(info.compress_type)
    if expansion is None:
        raise ValueError(f"member {name!r} uses unsupported compression {info.compress_type}")
    if info.compress_size > archive_size or info.file_size > expansion * info.compress_size:
        raise ValueError(
            f"member {name!r} claims {info.file_size} bytes that an archive of "
            f"{archive_size} bytes cannot hold"
        )
    with archive.open(info) as member:
        version = np.lib.format.read_magic(member)
        read_header = _HEADER_READERS.get(version)
        if read_header is None:
            raise ValueError(f"member {name!r} has unsupported .npy format version {version}")
        shape, fortran_order, dtype = read_header(member)
        if dtype.hasobject:
            raise ValueError(f"member {name!r} holds an object dtype")
        if any(dim < 0 for dim in shape):
            raise ValueError(f"member {name!r} header claims negative shape {shape}")
        count = math.prod(shape)
        nbytes = count * dtype.itemsize
        header_len = member.tell()
        if header_len + nbytes != info.file_size:
            raise ValueError(
                f"member {name!r} header claims shape {shape} of {dtype} "
                f"({header_len} + {nbytes} bytes) but stores {info.file_size} bytes"
            )
        array = np.empty(count, dtype=dtype)
        buffer = memoryview(array.view(np.uint8))
        for start in range(0, nbytes, _READ_CHUNK):
            chunk = buffer[start : start + _READ_CHUNK]
            if member.readinto(chunk) != len(chunk):
                raise EOFError(f"member {name!r} ends before its {nbytes} data bytes")
    if fortran_order:
        return array.reshape(shape[::-1]).transpose()
    return array.reshape(shape)
