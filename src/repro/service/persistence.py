"""Disk persistence for the SolverService factorization cache.

The whole point of the service is factorize-once/solve-many; a process
restart must not refactorize the world.  :func:`save_cache` snapshots every
cached :class:`~repro.api.StructuredSolver` -- the kernel operator, the
compressed representation and its ULV factorization, keyed by
:class:`~repro.service.solver_service.FactorKey` -- into one
zlib-compressed, checksummed file, and :func:`load_cache` installs them back
into a (possibly freshly constructed) service.  A loaded entry is a full
cache hit: serving it runs zero compression or factorization graph tasks
(see the persistence round-trip test).

File format: ``MAGIC | sha256(blob) | blob`` where ``blob`` is the
zlib-compressed pickle of ``{FactorKey: entry_dict}``.  The checksum turns
truncation or corruption into a loud ``ValueError`` instead of a cache full
of garbage factorizations, and the magic/version byte lets the layout evolve
without misreading old files.  Writes are atomic (temp file + ``os.replace``)
so a crash mid-save never clobbers the previous snapshot.

Pickles are only safe from trusted sources; the cache file is an operator
artifact (written by :meth:`SolverService.save_cache`, pointed at by the
``serve --cache-file`` flag), the same trust model as the model files of any
serving system.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.solver_service import SolverService

__all__ = ["save_cache", "load_cache", "MAGIC"]

#: File magic + layout version.  Bump the last byte on layout changes.
MAGIC = b"RPSC\x09"

_SHA256_LEN = 32


def save_cache(service: "SolverService", path: Union[str, Path]) -> int:
    """Write every cached factorization of ``service`` to ``path``.

    Returns the number of entries written.  The write is atomic: the
    previous file (if any) survives a crash mid-save.
    """
    path = Path(path)
    with service._lock:
        entries = {
            key: {
                "kernel_matrix": solver.kernel_matrix,
                "matrix": solver.matrix,
                "factor": solver.factor,
                "format": solver.format,
            }
            for key, solver in service._cache.items()
        }
    blob = zlib.compress(pickle.dumps(entries, protocol=pickle.HIGHEST_PROTOCOL))
    payload = MAGIC + hashlib.sha256(blob).digest() + blob
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)
    return len(entries)


def load_cache(service: "SolverService", path: Union[str, Path]) -> int:
    """Install factorizations saved by :func:`save_cache` into ``service``.

    Entries are installed oldest-first (the service's normal LRU order) and
    re-validated against their keys exactly like any served cache entry, so
    a snapshot whose contents do not match its keys fails loudly.  Loading
    counts neither hits nor misses; capacity is enforced, so a snapshot
    larger than ``max_cached`` keeps only the newest entries.  Returns the
    number of entries installed.  Raises ``ValueError`` on a corrupt,
    truncated or foreign file and ``FileNotFoundError`` when missing.
    """
    from repro.api import StructuredSolver

    path = Path(path)
    raw = path.read_bytes()
    if not raw.startswith(MAGIC):
        raise ValueError(
            f"{path} is not a solver-cache snapshot (bad magic); refusing to load"
        )
    digest = raw[len(MAGIC) : len(MAGIC) + _SHA256_LEN]
    blob = raw[len(MAGIC) + _SHA256_LEN :]
    if hashlib.sha256(blob).digest() != digest:
        raise ValueError(f"{path} failed its checksum (truncated or corrupt)")
    try:
        entries = pickle.loads(zlib.decompress(blob))
    except Exception as exc:
        raise ValueError(f"{path} could not be decoded: {exc}") from exc
    if not isinstance(entries, dict):
        raise ValueError(f"{path} decoded to {type(entries).__name__}, expected dict")
    loaded = 0
    with service._lock:
        for key, entry in entries.items():
            solver = StructuredSolver(
                entry["kernel_matrix"],
                matrix=entry["matrix"],
                format=entry["format"],
                factor=entry["factor"],
            )
            # Same loud corruption check every served entry gets.
            service._revalidate(key, solver)
            service._cache[key] = solver
            service._cache.move_to_end(key)
            service._stamps[key] = time.monotonic()
            loaded += 1
        service._evict_over_capacity()
    return loaded
