"""Append-only JSONL files that survive a crash at any byte.

A record is committed once its terminating newline is on disk.  A crash
mid-append leaves an unterminated partial line at the end of the file;
:func:`read_jsonl` skips it with a warning and the next :func:`append_jsonl`
truncates it before writing, so the file is again a sequence of whole
records.  Any other line that is not valid JSON is corruption and raises —
no record is ever dropped silently.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Any, Dict, List

from repro.utils.validation import ValidationError

logger = logging.getLogger(__name__)

#: Bytes read per step when scanning back for the last newline.
_SCAN_CHUNK = 64 * 1024


def _committed_length(handle, end: int) -> int:
    """Length of the first ``end`` bytes up to and including their last newline."""
    position = end
    while position > 0:
        start = max(0, position - _SCAN_CHUNK)
        handle.seek(start)
        chunk = handle.read(position - start)
        newline = chunk.rfind(b"\n")
        if newline >= 0:
            return start + newline + 1
        position = start
    return 0


def append_jsonl(path: Path, payload: Dict[str, Any]) -> None:
    """Append ``payload`` as one JSON line, first truncating a torn final line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    line = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    with path.open("ab+") as handle:
        end = handle.seek(0, os.SEEK_END)
        if end > 0:
            handle.seek(end - 1)
            if handle.read(1) != b"\n":
                committed = _committed_length(handle, end)
                logger.warning(
                    "%s: truncating an unterminated final line (%d byte(s)) before appending",
                    path,
                    end - committed,
                )
                handle.truncate(committed)
        handle.write(line)


def read_jsonl(path: Path) -> List[Dict[str, Any]]:
    """Every committed record of ``path`` in append order; [] when it does not exist.

    An unterminated final line is skipped with a warning; any other line
    that is not valid JSON raises :class:`ValidationError` naming its
    location.
    """
    if not path.is_file():
        return []
    data = path.read_bytes()
    lines = data.split(b"\n")
    torn = lines.pop()  # empty when the file ends in a newline
    if torn.strip():
        logger.warning(
            "%s: skipping an unterminated final line (%d byte(s)); the next append "
            "truncates it",
            path,
            len(torn),
        )
    records: List[Dict[str, Any]] = []
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise ValidationError(f"{path}:{line_number}: not valid JSON") from None
    return records
