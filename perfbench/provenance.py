"""Where a benchmark result came from: source revision, machine and versions."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

#: Provenance keys that identify the machine; results that differ in any of
#: them are not a same-machine comparison.
MACHINE_KEYS = ("cpu_model", "nproc", "machine", "system")


def _git_sha(root: Path) -> Optional[str]:
    """HEAD's commit from ``root/.git`` (None outside a git checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        ref_path = git / ref
        if ref_path.is_file():
            return ref_path.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None


def _source_sha256(source: Path) -> str:
    """Digest of every file under ``source`` (works where git does not)."""
    digest = hashlib.sha256()
    for path in sorted(source.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(source).as_posix().encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def collect(root: Path, engine_workers: int, evaluation_workers: int) -> Dict[str, Any]:
    """The provenance block stored with every result."""
    import numpy

    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_sha256(root / "src"),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "engine_workers": engine_workers,
        "evaluation_workers": evaluation_workers,
    }


def machine_mismatch(first: Mapping[str, Any], second: Mapping[str, Any]) -> List[str]:
    """Machine keys on which two provenance blocks differ."""
    return [key for key in MACHINE_KEYS if first.get(key) != second.get(key)]
