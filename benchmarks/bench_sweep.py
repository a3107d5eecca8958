"""Sweep runtime — the unified runner over the oracle-sweep space.

Times the cold serial sweep, a pool-backed sweep, and the cache-warm
re-run (which must execute zero scenarios).  The profiler breakdown
(``runtime.sweep``, ``runtime.sweep.execute``, ``runtime.sweep.check``)
lands in ``benchmarks/metrics.jsonl`` alongside the engine spans.

``bench_sweep_with_run_dir`` bounds the telemetry overhead: the full
artifact pipeline (manifest, per-cell metrics lines, progress
heartbeats, summary + SLO verdicts) rides the same sweep, so its cost
relative to ``bench_sweep_serial_cold`` is the price of a run
directory.

``bench_sweep_causal_analysis`` bounds the causal layer's overhead:
happens-before reconstruction plus critical-path extraction over every
cell of the already-executed sweep, so the ``obs.causal.annotate`` /
``obs.causal.critical`` spans land in ``metrics.jsonl`` next to the
execution spans they would tax.
"""

from repro.obs.causal import annotate
from repro.obs.critical import critical_paths, verify_round_paths
from repro.obs.report import summarize_sweep, summary_problems
from repro.runtime import Campaign, SweepRunner, oracle_sweep_space


def bench_sweep_serial_cold(once):
    space = oracle_sweep_space(count=5)
    result = once(SweepRunner(jobs=1).run, space)
    assert result.executed == result.total
    assert result.cached == 0


def bench_sweep_parallel(once):
    space = oracle_sweep_space(count=5)
    result = once(SweepRunner(jobs=2).run, space)
    assert result.executed == result.total


def bench_sweep_cache_warm(once, tmp_path):
    space = oracle_sweep_space(count=5)
    cache_dir = str(tmp_path / "sweep-cache")
    SweepRunner(jobs=1, cache=cache_dir).run(space)  # populate
    result = once(SweepRunner(jobs=1, cache=cache_dir).run, space)
    assert result.executed == 0
    assert result.cached == result.total


def bench_sweep_checked(once):
    space = oracle_sweep_space(count=5)
    result = once(SweepRunner(jobs=1, check=True).run, space)
    assert result.checks_ok, result.describe()


def bench_sweep_causal_analysis(once):
    space = oracle_sweep_space(count=5)
    sweep = SweepRunner(jobs=1).run(space)
    traced = [result for result in sweep.results if result.events]

    def analyze_all():
        anomalies = 0
        decisions = 0
        for result in traced:
            graph = annotate(result.events)
            decisions += len(critical_paths(result.events, graph=graph))
            anomalies += len(verify_round_paths(result.events, graph=graph))
        return decisions, anomalies

    decisions, anomalies = once(analyze_all)
    assert decisions > 0
    assert anomalies == 0


def bench_sweep_with_run_dir(once, tmp_path):
    space = oracle_sweep_space(count=5)

    def instrumented_sweep():
        campaign = Campaign.open(
            tmp_path / "runs", kind="sweep", name=space.name, requests=space.requests
        )
        with campaign:
            sweep = SweepRunner(
                jobs=1, cache=campaign.cache, on_cell=campaign.on_cell
            ).run(space)
            campaign.finish(
                lambda run: summarize_sweep(
                    run,
                    sweep,
                    completed_before=campaign.completed_before,
                    keys=campaign.keys,
                )
            )
        return campaign.run_dir, sweep

    run, sweep = once(instrumented_sweep)
    assert sweep.executed == sweep.total
    assert summary_problems(run.summary()) == []
