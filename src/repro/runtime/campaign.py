"""The one lifecycle of a campaign leg, shared by every campaign.

``repro sweep``, ``fuzz``, ``mc``, ``serve`` and ``live`` all run it:
key the cells once, open (or re-attach to) the content-addressed
:class:`~repro.obs.artifacts.RunDir`, serve its ``results/`` store as
the cache, log one ``metrics.jsonl`` line and one heartbeat per cell,
mark the run ``interrupted`` on any exception inside ``with campaign``,
and :meth:`~Campaign.finish` with ``summary.json``.  Without a run root
the campaign is inert: the cache is the caller's (or ``None``), there
is no ``on_cell``, and nothing touches the disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.obs.artifacts import RunDir, SLOConfig
from repro.obs.progress import ProgressReporter
from repro.runtime.cache import ResultCache
from repro.runtime.request import (
    ExecutionRequest,
    ExecutionResult,
    batch_cache_keys,
)


@dataclass
class Campaign:
    """One campaign leg; see the module docstring."""

    cache: ResultCache | str | None = None
    run_dir: RunDir | None = None
    reporter: ProgressReporter | None = None
    #: Request cache keys in planned order (``None`` when inert).
    keys: list[str] | None = None
    #: Keys whose results were on disk before this leg started.
    completed_before: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        # SweepRunner callbacks: on_cell logs the cell and ticks the
        # heartbeat; record (derived work outside the planned total)
        # only logs it.
        self.on_cell = self._on_cell if self.run_dir is not None else None
        self.record = self._record if self.run_dir is not None else None

    @classmethod
    def open(
        cls,
        run_root: str | Path | None,
        *,
        kind: str,
        name: str,
        requests: Sequence[ExecutionRequest] | None = None,
        cells: Sequence[tuple[str, str]] | None = None,
        identity: Any = None,
        config: Mapping[str, Any] | None = None,
        slo: SLOConfig | None = None,
        cache_dir: str | None = None,
        stream: Any = None,
        label: str | None = None,
    ) -> "Campaign":
        """Open the leg under ``run_root`` (inert when it is ``None``).

        ``requests`` give the identity (their sorted cache keys) and the
        manifest cells; campaigns without requests (live sessions) pass
        ``cells`` and an ``identity`` instead.  ``stream`` mirrors the
        heartbeats, tagged ``label`` (default: ``name``).
        """
        if run_root is None:
            return cls(cache=cache_dir)
        keys = None
        if requests is not None:
            keys = batch_cache_keys(requests)
            identity = sorted(keys)
            cells = [(request.name, key) for request, key in zip(requests, keys)]
        run_dir = RunDir.open(
            run_root,
            kind=kind,
            name=name,
            identity=identity,
            cells=cells,
            config=config,
            slo=slo,
        )
        reporter = ProgressReporter(
            total=len(cells),
            path=run_dir.progress_path,
            stream=stream,
            label=label or name,
        )
        return cls(
            cache=ResultCache(run_dir.results_dir),
            run_dir=run_dir,
            reporter=reporter,
            keys=keys,
            completed_before=run_dir.completed_keys(),
        )

    def log_cell(
        self,
        name: str,
        key: str,
        *,
        cached: bool = False,
        verdict: str | None = None,
        **fields: Any,
    ) -> None:
        """Log one finished cell and tick the heartbeat (no-op when inert)."""
        if self.run_dir is not None:
            self.run_dir.record_cell(name=name, key=key, cached=cached, **fields)
            self.reporter.advance(cached=cached, verdict=verdict)

    def _record(self, request: ExecutionRequest, result: ExecutionResult) -> None:
        profile = result.extra.get("profile") or {}
        self.run_dir.record_cell(
            name=request.name,
            key=result.request_key,
            cached=result.cached,
            engine=request.engine,
            algorithm=request.algorithm,
            latency=result.latency,
            num_rounds=result.num_rounds,
            events=len(result.events),
            duration_s=profile.get("duration_s"),
        )

    def _on_cell(self, request: ExecutionRequest, result: ExecutionResult) -> None:
        self._record(request, result)
        self.reporter.advance(cached=result.cached)

    def __enter__(self) -> "Campaign":
        if self.reporter is not None:
            self.reporter.start()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is not None:
            self.interrupt()

    def interrupt(self) -> None:
        """Mark the leg interrupted; the next leg resumes it."""
        if self.run_dir is not None:
            self.run_dir.mark_interrupted()
            self.reporter.stop(status="interrupted")

    def finish(
        self, summarize: Callable[[RunDir], Mapping[str, Any]]
    ) -> Mapping[str, Any] | None:
        """Write ``summarize(run_dir)`` as ``summary.json`` and stop the
        heartbeats; returns the summary (``None`` when inert)."""
        if self.run_dir is None:
            return None
        summary = summarize(self.run_dir)
        self.run_dir.finalize(summary)
        self.reporter.stop()
        return summary
