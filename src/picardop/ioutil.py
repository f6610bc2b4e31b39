"""Small file-writing helpers: atomic text/JSON output."""

from __future__ import annotations

import json
import os
import tempfile


def _create_temp(directory: str):
    """Open a new file ``.tmp-<random>~`` in ``directory`` for writing.

    It is created as ``open(path, "w")`` creates a file, with mode 0o666 less
    the umask, which the rename then gives the artifact; ``mkstemp`` would
    make it 0o600 whatever the umask. Returns (fd, path).
    """
    for _ in range(tempfile.TMP_MAX):
        tmp = os.path.join(directory, f".tmp-{os.urandom(6).hex()}~")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue
    raise FileExistsError(f"no unused temporary file name in {directory}")


def write_text_atomic(path, text: str) -> None:
    """Write text via a temp file in the same directory plus rename.

    The file gets the mode ``open(path, "w")`` would give a new file.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = _create_temp(directory)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path, obj) -> None:
    """Deterministic JSON dump (sorted keys) written atomically."""
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
