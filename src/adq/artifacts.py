"""The one writer of the package's output files. ``write_file`` writes to
``path + ".tmp"`` and then ``os.replace``s that over ``path``, so a killed
process leaves the previous file or the new one, never a part of one. Every
``OSError`` becomes one ``InputError`` naming the path."""

from __future__ import annotations

import contextlib
import csv
import io
import os

from adq.errors import InputError


def make_dir(path):
    """os.makedirs(path, exist_ok=True), with a failure as an InputError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {path!r}: "
                         f"{exc.strerror or exc}") from None


def check_targets(paths):
    """Raise InputError at the first path, or its .tmp, that is a directory."""
    for path in (name for p in paths for name in (p, f"{p}.tmp")):
        if os.path.isdir(path):
            raise InputError(f"cannot write {path!r}: it is a directory")


def write_file(path, *parts):
    """Write the parts, bytes or str (as UTF-8), in order to path."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            for part in parts:
                f.write(part.encode() if isinstance(part, str) else part)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise InputError(f"cannot write {path!r}: "
                         f"{exc.strerror or exc}") from None


def csv_text(rows) -> str:
    """rows as csv.writer writes them: each line ends in \\r\\n."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()
