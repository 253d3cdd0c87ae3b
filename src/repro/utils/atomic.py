"""Atomic file publication: write-then-rename with a unique temp name."""

from __future__ import annotations

import itertools
import os
from pathlib import Path

_TMP_IDS = itertools.count()


def write_atomic(path: "str | Path", text: str) -> Path:
    """Publish ``text`` at ``path`` in one step: a reader sees the old
    file or the new one, never a torn write, and a writer killed
    mid-write leaves only its temp file.  The temp name is unique per
    writer (pid + counter), so concurrent writers of one path never
    touch each other's bytes and the last rename wins.  Temp names end
    in ``.tmp``, which ``repro cache fsck`` reports as orphans."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_TMP_IDS)}.tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)
    return path
