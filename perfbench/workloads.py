"""Workload inputs and the layer-to-metric map.

Every input is a pure function of ``(workload, seed)``: the sweep and
serve workloads run the registered ``oracle-sweep`` space with
:data:`CELLS_PER_STREAM` cells per random stream and ``--seed SEED``,
so one seed gives the same cells (and the same merged trace) on
``sweep-cold`` and ``serve-vector``.  ``mc-verdict`` checks fixed
instances exhaustively; its arguments carry no seed.
"""

from __future__ import annotations

import hashlib

SPACE = "oracle-sweep"

#: Random cells per round model.  The space is 8 named workload cells,
#: two random streams (RS and RWS) and 2 emulation cells: 2,010 cells.
#: Larger spaces make one cold sweep outlast the run budget on a 2-core
#: host; at this size the quadratic duplicate-name check in
#: ``ScenarioSpace.__post_init__`` is still a visible share of setup.
CELLS_PER_STREAM = 1000
SWEEP_CELLS = 8 + 2 * CELLS_PER_STREAM + 2

WORKLOADS = ("sweep-cold", "mc-verdict", "serve-vector")


def sweep_args(seed: int, *, engine: str = "rounds") -> list[str]:
    """``repro sweep``/``serve`` arguments selecting the workload space."""
    args = [SPACE, "--count", str(CELLS_PER_STREAM), "--seed", str(seed)]
    if engine != "rounds":
        args += ["--engine", engine]
    return args


def operation_argv(workload: str, seed: int, run_dir: str, jsonl: str) -> list[str]:
    """The ``repro`` argv of one ``sweep-cold`` or ``serve-vector`` operation."""
    if workload == "sweep-cold":
        return ["sweep", *sweep_args(seed), "--check", "--run-dir", run_dir,
                "--jsonl", jsonl, "--jobs", "1"]
    if workload == "serve-vector":
        # --linger-s 0 drops the grace sleep a single worker never needs.
        return ["serve", *sweep_args(seed, engine="vector"), "--check",
                "--run-dir", run_dir, "--jsonl", jsonl, "--linger-s", "0"]
    raise ValueError(f"{workload} runs no sweep space")


def reference_argv(seed: int, jsonl: str) -> list[str]:
    """A vector-engine sweep whose merged trace every operation must match."""
    return ["sweep", *sweep_args(seed, engine="vector"), "--jobs", "2", "--jsonl", jsonl]


#: ``(algorithm, n, t, model, horizon)`` and the frontier statistics
#: ``repro mc agreement`` reports for it (recorded at the commit that
#: introduced this benchmark; a change to any of them is a gate failure).
MC_INSTANCES: tuple[tuple[tuple[str, int, int, str, int], dict[str, object]], ...] = (
    (
        ("floodset", 4, 2, "RS", 4),
        {
            "cells": 13, "choices_explored": 2823, "dominance_pruned": 696,
            "leaves": 13, "levels": [19, 15, 13, 0], "quiescent_leaves": 13,
            "revisit_pruned": 2787, "roots_kept": 5, "roots_total": 16,
            "states_generated": 2823, "states_visited": 52,
        },
    ),
    (
        ("floodset-ws", 4, 1, "RWS", 3),
        {
            "cells": 26, "choices_explored": 1775, "dominance_pruned": 1182,
            "leaves": 26, "levels": [36, 26, 0], "quiescent_leaves": 26,
            "revisit_pruned": 1724, "roots_kept": 5, "roots_total": 16,
            "states_generated": 1775, "states_visited": 67,
        },
    ),
    (
        ("floodset", 5, 1, "RS", 3),
        {
            "cells": 8, "choices_explored": 785, "dominance_pruned": 0,
            "leaves": 8, "levels": [14, 8, 0], "quiescent_leaves": 8,
            "revisit_pruned": 789, "roots_kept": 6, "roots_total": 32,
            "states_generated": 785, "states_visited": 28,
        },
    ),
)


def mc_args(instance: tuple[str, int, int, str, int]) -> list[str]:
    algorithm, n, t, model, horizon = instance
    return [
        "agreement", "--algorithm", algorithm, "--n", str(n), "--t", str(t),
        "--model", model, "--horizon", str(horizon),
    ]


def request_keys_digest(workload: str, seed: int) -> str:
    """sha256 over the cache keys of the cells a workload's operation runs.

    Parses :func:`operation_argv` with the CLI's own parser and builds
    the space the way ``repro serve`` does from the parsed arguments
    (for a registered space ``repro sweep`` builds the same one), so a
    change to the arguments the benchmark passes shows here.  Needs
    ``src`` on the import path.
    """
    from repro.cli.main import build_parser
    from repro.cli.serve import _build_space
    from repro.runtime.request import batch_cache_keys

    args = build_parser().parse_args(operation_argv(workload, seed, "runs", "trace.jsonl"))
    keys = batch_cache_keys(_build_space(args).requests)
    return hashlib.sha256("\n".join(keys).encode("ascii")).hexdigest()


#: Which workload each layer's share should be largest on.  A traced run
#: checks that one of these layers is among its two largest self times.
TARGET_LAYERS = {
    "sweep-cold": ("engine",),
    "mc-verdict": ("mc.explore",),
    "serve-vector": ("serve",),
}

#: Per-layer metric -> (unit, end-to-end metric and workloads it should
#: move).  ``_s`` metrics are summed self times of the named spans
#: unless marked inclusive below.
PER_LAYER: dict[str, tuple[str, str]] = {
    "space.build_s": ("s", "setup_s on sweep-cold, serve-vector"),
    "request.cache_key_s": ("s", "setup_s, cells_per_s on sweep-cold, serve-vector"),
    "request.cache_key_calls": ("count", "setup_s, cells_per_s on sweep-cold, serve-vector (outermost calls)"),
    "request.cache_keys": ("count", "setup_s, cells_per_s on sweep-cold, serve-vector (keys those calls return)"),
    "cache.get_s": ("s", "cells_per_s on serve-vector (finalize reads every result back)"),
    "cache.hits": ("count", "cells_per_s on serve-vector (finalize reads every result back)"),
    "cache.misses": ("count", "cells_per_s on serve-vector (finalize reads every result back)"),
    "cache.hit_ratio": ("ratio", "cells_per_s on serve-vector (finalize reads every result back)"),
    "cache.put_s": ("s", "cells_per_s, rundir_bytes_per_cell on sweep-cold, serve-vector"),
    "cache.stores": ("count", "cells_per_s, rundir_bytes_per_cell on sweep-cold, serve-vector"),
    "cache.bytes_written": ("bytes", "rundir_bytes_per_cell on sweep-cold, serve-vector"),
    "harness.execute_s": ("s", "cells_per_s on sweep-cold; verdict_s (small share)"),
    "harness.cells_executed": ("count", "cells_per_s on sweep-cold; verdict_s"),
    "engine.run_s": ("s", "cells_per_s on sweep-cold"),
    "vector.batch_s": ("s", "cells_per_s on serve-vector"),
    "vector.kernel_cells": ("count", "cells_per_s on serve-vector"),
    "vector.fallback_cells": ("count", "cells_per_s on serve-vector"),
    "vector.kernel_ratio": ("ratio", "cells_per_s on serve-vector"),
    "sweep.run_s": ("s", "cells_per_s on sweep-cold"),
    "check.cell_s": ("s", "cells_per_s on sweep-cold, serve-vector"),
    "check.cells": ("count", "cells_per_s on sweep-cold, serve-vector"),
    "check.failed": ("count", "correct on every workload"),
    "trace.export_s": ("s", "cells_per_s on sweep-cold, serve-vector"),
    "trace.events": ("count", "cells_per_s on sweep-cold, serve-vector"),
    "trace.bytes": ("bytes", "cells_per_s on sweep-cold, serve-vector"),
    "rundir.open_s": ("s", "setup_s on sweep-cold, serve-vector"),
    "rundir.record_cell_s": ("s", "cells_per_s on sweep-cold, serve-vector"),
    "rundir.summarize_s": ("s", "cells_per_s on sweep-cold, serve-vector"),
    "rundir.finalize_s": ("s", "cells_per_s on sweep-cold, serve-vector"),
    "mc.explore_s": ("s", "verdict_s on mc-verdict"),
    "mc.canonical_s": ("s", "verdict_s on mc-verdict"),
    "mc.canonical_calls": ("count", "verdict_s on mc-verdict"),
    "mc.states_generated": ("count", "verdict_s on mc-verdict"),
    "mc.states_visited": ("count", "verdict_s on mc-verdict"),
    "mc.revisit_pruned": ("count", "verdict_s on mc-verdict"),
    "mc.dominance_pruned": ("count", "verdict_s on mc-verdict"),
    "mc.leaves": ("count", "verdict_s on mc-verdict"),
    "mc.states_per_s": ("1/s", "verdict_s on mc-verdict (generated / inclusive explore time)"),
    "mc.frontier_space_s": ("s", "verdict_s on mc-verdict"),
    "mc.execute_s": ("s", "verdict_s on mc-verdict (inclusive sweep.run under mc.check)"),
    "mc.judge_s": ("s", "verdict_s on mc-verdict"),
    "serve.plan_s": ("s", "setup_s on serve-vector (inclusive Coordinator construction)"),
    "serve.claim_s": ("s", "cells_per_s on serve-vector"),
    "serve.submit_s": ("s", "cells_per_s on serve-vector"),
    "serve.rtt_p50_ms": ("ms", "cells_per_s on serve-vector (worker-side claim+submit)"),
    "serve.rtt_p99_ms": ("ms", "cells_per_s on serve-vector (worker-side claim+submit)"),
    "serve.worker_wait_s": ("s", "cells_per_s on serve-vector (worker run span minus shard execution)"),
    "serve.payload_bytes": ("bytes", "cells_per_s on serve-vector (submit bodies)"),
    "serve.finalize_s": ("s", "cells_per_s on serve-vector"),
    "serve.shards": ("count", "cells_per_s on serve-vector"),
    "serve.requeued": ("count", "correct, cells_per_s on serve-vector"),
    "serve.stale_submissions": ("count", "correct, cells_per_s on serve-vector"),
    "serve.duplicate_cells": ("count", "correct, cells_per_s on serve-vector"),
    "serve.quarantined": ("count", "correct on serve-vector"),
    "trace_overhead_s": ("s", "traced minus untraced wall time of the same operations"),
    "trace_overhead_ratio": ("ratio", "trace_overhead_s over the untraced wall time"),
    "unattributed_ratio": ("ratio", "share of traced wall time no layer span covers"),
}
