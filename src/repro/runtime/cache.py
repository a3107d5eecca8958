"""On-disk result cache for sweep cells.

One JSON file per executed cell, named by the request's stable
:meth:`~repro.runtime.request.ExecutionRequest.cache_key`.  Repeated
sweeps (CI re-runs, ``make bench-report``, iterating on an analysis)
skip every cell whose request hash they have seen before — the second
run of an unchanged sweep executes zero scenarios.

Corrupt or unreadable entries are treated as misses, never as errors: a
cache must only ever make things faster.  A corrupt entry is also
*evicted* on read — leaving it on disk would let ``__len__`` (and the
cache directory's size) count entries that can never serve a hit.

Every cache keeps a :class:`CacheStats` tally (hits, misses, stores,
corrupt evictions).  Silent eviction was the right behavior for the
cache itself, but it is exactly the kind of fact a campaign summary
must surface: a nonzero ``corrupt_evictions`` on a healthy disk means
a writer was killed mid-``put`` or something else is scribbling over
the cache directory — so the counts flow into ``summary.json`` and the
``repro sweep`` output.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.runtime.request import ExecutionRequest, ExecutionResult


@dataclass
class CacheStats:
    """Telemetry of one cache's lifetime (typically one campaign leg)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt_evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt_evictions": self.corrupt_evictions,
        }


class ResultCache:
    """A directory of ``<cache_key>.json`` execution results."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, request: ExecutionRequest) -> ExecutionResult | None:
        """The cached result for ``request``, or ``None`` on a miss.

        A present-but-unreadable entry (truncated write, foreign junk,
        stale schema) is deleted before reporting the miss: the slot is
        about to be re-written anyway, and keeping the corpse would make
        ``len(cache)`` overcount.  The eviction is tallied in
        :attr:`stats` so campaign summaries can report it.
        """
        path = self._path(request.cache_key())
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            result = ExecutionResult.from_dict(data)
        except OSError:
            self.stats.misses += 1
            return None
        except (ValueError, KeyError, TypeError):
            self.stats.corrupt_evictions += 1
            self.stats.misses += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.stats.hits += 1
        result.cached = True
        return result

    def put(self, request: ExecutionRequest, result: ExecutionResult) -> None:
        """Store ``result`` under ``request``'s key (atomic replace)."""
        path = self._path(request.cache_key())
        payload = json.dumps(result.to_dict(), sort_keys=True, default=repr)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    def completed_keys(self) -> set[str]:
        """The request keys with a (well-named) entry on disk."""
        return {
            entry.stem
            for entry in self.directory.glob("*.json")
            if not entry.name.startswith(".tmp-")
        }

    def __len__(self) -> int:
        return len(self.completed_keys())
