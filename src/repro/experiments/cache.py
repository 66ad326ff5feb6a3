"""Content-keyed on-disk cache for sweep cells.

Each cell result is one JSON file under the cache root (default
``.repro_cache/``), named by a stable SHA-256 of the cell's function,
its parameters, and the sweep-level settings — see
:func:`repro.experiments.sweep.cell_key`.  Changing any of those inputs
changes the key, so a re-run after editing one series only recomputes
the changed cells; everything else is a hit.

The cache is strictly best-effort: a missing, unreadable, corrupted, or
structurally wrong file is treated as a miss (never an error), and
writes go through a temp file + ``os.replace`` so a crashed run cannot
leave a torn entry behind.  Each write gets its own temp file in the
entry's directory, so processes sharing a cache directory (the sweep
CLI and the bound service) never write into one another's temp file:
concurrent writers of one key each publish a whole entry, and the last
rename wins.  Failures stay visible to the observability layer: absent
entries count as ``cache.misses``, unreadable or malformed ones as
``cache.corrupt``, and failed writes as ``cache.put_errors``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Mapping

from repro import obs

#: Default cache root, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro_cache"


class CellCache:
    """A directory of ``<key>.json`` cell payloads."""

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR):
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """File backing ``key`` (two-level fan-out keeps dirs small)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached payload for ``key``, or ``None`` on any miss.

        An absent entry counts as ``cache.misses``; corrupted JSON,
        payloads that are not a ``{"rows": [...]}`` mapping, and other
        I/O errors are misses too but count as ``cache.corrupt``.
        """
        path = self.path_for(key)
        try:
            with open(path, "r") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            obs.add("cache.misses")
            return None
        except (OSError, ValueError):
            obs.add("cache.corrupt")
            return None
        if not isinstance(payload, dict) or not isinstance(
            payload.get("rows"), list
        ):
            obs.add("cache.corrupt")
            return None
        obs.add("cache.hits")
        return payload

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        """Persist ``payload`` under ``key`` (atomic, best-effort).

        A failed write — a read-only or full disk — must not fail the
        sweep: it leaves no temp file behind and counts as
        ``cache.put_errors``.
        """
        path = self.path_for(key)
        # unique per process and per call, created with the umask's mode
        tmp: Path | None = path.with_name(
            f"{path.name}.{os.getpid()}.{os.urandom(6).hex()}.tmp"
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "x") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
            tmp = None
            obs.add("cache.puts")
        except OSError:
            obs.add("cache.put_errors")
        finally:
            if tmp is not None:
                try:
                    tmp.unlink()
                except OSError:
                    pass

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __repr__(self) -> str:
        return f"CellCache({str(self.root)!r})"
