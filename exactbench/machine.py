"""Run diagnostics and provenance, read without touching the machine:
steal share from /proc/stat, load from /proc/loadavg, usable CPUs,
library versions and the source the run measured."""

from __future__ import annotations

import hashlib
import os
import platform
from importlib import metadata


def cpu_times() -> list[int] | None:
    """The aggregate ``cpu`` line of /proc/stat, or None where it is absent."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    return [int(v) for v in fields[1:9]]  # user nice system idle iowait irq softirq steal


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Stolen time as a share of the busy CPU time (steal included) between
    two readings of :func:`cpu_times`."""
    if before is None or after is None:
        return None
    d = [b - a for a, b in zip(before, after)]
    busy = d[0] + d[1] + d[2] + d[5] + d[6] + d[7]
    return d[7] / busy if busy else 0.0


def loadavg_1m() -> float | None:
    try:
        with open("/proc/loadavg") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _git_commit(root: str) -> str | None:
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(root, ".git", ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(root, ".git", "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(package_dir: str) -> str:
    """sha256 over the package's .py files (relative path and bytes)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(package_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, package_dir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(root: str) -> dict:
    return {
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(root),
        "source_digest": source_digest(os.path.join(root, "src", "cuntzmod")),
    }
