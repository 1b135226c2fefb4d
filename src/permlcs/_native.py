"""The package's C helpers, `_native.c`, compiled on first use and loaded
with `ctypes`: `invert` (for `perm.invert`) and `lis_lanes`, the one
patience entry, for `subseq`: one call measures `LANES` = 4 (position
array, word) pairs together, each word relabeled through its own position
array, or read as it is where that is None; and `parse_line` /
`render_line` (the PERMSET value-line codec, for `fileio`).  Each takes the
package's one word type, a contiguous `int32` array, and callers pass the
arrays themselves: the argument table `library()` sets, `_signatures()`,
declares each array argument with `np.ctypeslib.ndpointer`, so a call with
the wrong dtype, a strided view or a read-only output (for `lis_lanes`'
lengths, anything but a writeable `intp[LANES]`) raises
`ctypes.ArgumentError` instead of handing C the wrong bytes.  The LIS
kernel allocates its own pile tops and returns -1 when it cannot.

`library()` compiles the source with `cc` into this package's
`__pycache__/` and loads it; importing the module does neither.  The file
name carries a checksum of the source and of the compiler command, and the
interpreter's extension tag, so an edited source or command never meets a
stale library.  Where it cannot be built or loaded (no compiler, a
read-only package, a failed build), `library()` returns None and each
caller runs its plain-Python route instead, with equal results and no
output; there is no switch between the two.
"""

from __future__ import annotations

import contextlib
import os
import zlib
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

_SOURCE = Path(__file__).with_name("_native.c")
_CC = ("cc", "-O2", "-shared", "-fPIC")
_BUILD_TIMEOUT_S = 60
LANES = 4  # the words one `lis_lanes` call measures: LANES in `_native.c`


def _build(lib: Path) -> bool:
    """Compile `_SOURCE` to `lib` in a private temp directory and rename it
    into place, so concurrent builds never leave a torn library; the
    compiler's output is discarded.  Then delete the libraries of other
    sources or commands built for this interpreter; a process that loaded
    one keeps its mapping."""
    import subprocess
    import tempfile

    lib.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=lib.parent) as tmp:
        out = os.path.join(tmp, lib.name)
        try:
            subprocess.run([*_CC, "-o", out, str(_SOURCE)], stdin=subprocess.DEVNULL,
                           capture_output=True, timeout=_BUILD_TIMEOUT_S, check=True)
        except subprocess.SubprocessError:
            return False
        os.replace(out, lib)
    suffix = EXTENSION_SUFFIXES[0]
    for stale in lib.parent.glob(f"_native-*{suffix}"):
        if stale != lib:
            with contextlib.suppress(OSError):
                stale.unlink()
    return True


@cache
def library():
    """The compiled `_native.c` with `argtypes` and `restype` set on each of
    its functions, building it if needed; None if it cannot be built or
    loaded.  Built or loaded once per process, on first use."""
    try:
        source = _SOURCE.read_bytes()
        key = zlib.crc32(" ".join(_CC).encode(), zlib.crc32(source))
        path = _SOURCE.parent / "__pycache__" / f"_native-{key:08x}{EXTENSION_SUFFIXES[0]}"
        if not path.exists() and not _build(path):
            return None
        import ctypes

        lib = ctypes.CDLL(str(path))
        for name, (restype, argtypes) in _signatures().items():
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
    except (OSError, AttributeError):
        return None
    return lib


def _signatures() -> dict:
    """The argument table: each function `_native.c` exports, by name, to
    its (`restype`, `argtypes`)."""
    import ctypes

    import numpy as np

    size = ctypes.c_ssize_t
    word = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
    out = np.ctypeslib.ndpointer(np.int32, flags=("C_CONTIGUOUS", "WRITEABLE"))
    lengths = np.ctypeslib.ndpointer(np.intp, shape=(LANES,), flags=("C_CONTIGUOUS", "WRITEABLE"))
    line = np.ctypeslib.ndpointer(np.uint8, flags=("C_CONTIGUOUS", "WRITEABLE"))

    class positions(word):
        """A lane's position array, or None (NULL): the lane reads its word as it is."""

        @classmethod
        def from_param(cls, obj):
            return None if obj is None else super().from_param(obj)

    return {
        "invert": (None, (word, size, out)),
        "lis_lanes": (ctypes.c_int,
                      (*(positions,) * LANES, *(word,) * LANES, size, size, lengths)),
        "render_line": (size, (word, size, line, size)),
        "parse_line": (ctypes.c_int, (ctypes.c_char_p, size, size, out)),
    }
