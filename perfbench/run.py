"""Campaign benchmark: sweep, mc verdict and serve, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the program is built from ``src/``).
Each operation runs the real CLI in a fresh interpreter and one client
waits for each result (closed loop).  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` runs each operation
once untraced and once with every layer wrapped (see ``tracer.py``) and
reports the per-layer metrics, the tracing overhead and the self-time
share table.  Every operation's output passes a correctness gate.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracer import LAYER_OF
from workloads import (
    MC_INSTANCES,
    PER_LAYER,
    SWEEP_CELLS,
    TARGET_LAYERS,
    WORKLOADS,
    mc_args,
    operation_argv,
    reference_argv,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A single process that runs longer than this is killed (gate failure).
PROC_LIMIT_S = 150.0
#: Set-up probes per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdict_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
    "rundir_bytes_per_cell": "bytes",
}


@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    rss_kb: int
    stdout: str


@dataclass
class Gate:
    """Correctness gate tally: cells and run-level checks."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


@dataclass
class Op:
    """One measured operation: what the end-to-end metrics are built from."""

    wall_s: float
    cpu_s: float
    cells: int
    rss_kb: int
    bytes_on_disk: int
    traces: list[list[Path]] = field(default_factory=list)
    summary: dict | None = None


class Runner:
    """Starts, times and reaps every process of one benchmark run."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.live: list[subprocess.Popen] = []
        self._names = 0

    def repro(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "repro", *args]

    def child(self, *args: str) -> list[str]:
        return [sys.executable, str(HERE / "child.py"), *args]

    def spawn(self, argv: list[str]) -> tuple[subprocess.Popen, float, Path]:
        self._names += 1
        out = self.work / f"proc-{self._names:03d}.out"
        with open(out, "w") as stdout, open(out.with_suffix(".err"), "w") as stderr:
            started = perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=stdout, stderr=stderr
            )
        self.live.append(proc)
        return proc, started, out

    def reap(self, proc: subprocess.Popen, started: float, out: Path) -> Proc:
        watchdog = threading.Timer(
            max(1.0, PROC_LIMIT_S - (perf_counter() - started)), proc.kill
        )
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss, out.read_text())

    def run(self, argv: list[str]) -> Proc:
        return self.reap(*self.spawn(argv))

    def close(self) -> None:
        for proc in self.live:
            proc.kill()
            proc.wait()
        self.live.clear()


def sha256_file(path: Path) -> str | None:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
    except OSError:
        return None
    return digest.hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated like numpy's default."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def only_run_dir(root: Path) -> Path | None:
    dirs = [p for p in root.glob("*") if p.is_dir()] if root.is_dir() else []
    return dirs[0] if len(dirs) == 1 else None


# -- the workloads -------------------------------------------------------------


class Workload:
    """One workload's preparation, set-up probe, operation and gates."""

    def __init__(self, name: str, seed: int, runner: Runner, gate: Gate) -> None:
        self.name = name
        self.seed = seed
        self.r = runner
        self.gate = gate
        self.work = runner.work
        self._ops = 0
        self.reference: str | None = None

    def fresh(self, label: str) -> Path:
        self._ops += 1
        return self.work / f"{label}-{self._ops:02d}"

    # Preparation is untimed: a vector-engine reference sweep whose merged
    # trace every sweep and serve operation must reproduce byte for byte.
    def prepare(self) -> None:
        if self.name == "mc-verdict":
            return
        ref = self.work / "reference.jsonl"
        proc = self.r.run(self.r.repro(*reference_argv(self.seed, str(ref))))
        self.gate.check(proc.rc == 0, f"reference vector sweep exited {proc.rc}")
        self.reference = sha256_file(ref)

    def setup_probe(self) -> float:
        """The operation's own command, stopped where its first cell would run."""
        root = self.fresh("setup")
        if self.name == "mc-verdict":
            args = ["mc", *mc_args(MC_INSTANCES[0][0]), "--out", str(root / "out")]
        else:
            args = operation_argv(self.name, self.seed, str(root / "runs"),
                                  str(root / "trace.jsonl"))
        proc = self.r.run(self.r.child("setup", "--", *args))
        self.gate.check(proc.rc == 0, f"set-up probe exited {proc.rc}")
        shutil.rmtree(root, ignore_errors=True)
        return proc.wall_s

    def _command(self, args: list[str], trace_out: Path | None) -> list[str]:
        """``repro ARGS``, or the traced in-process CLI when ``trace_out`` is set."""
        if trace_out is None:
            return self.r.repro(*args)
        return self.r.child("cli", str(trace_out), "--", *args)

    def operation(self, traced: bool) -> Op:
        if self.name == "mc-verdict":
            return self._mc(traced)
        if self.name == "serve-vector":
            return self._serve(traced)
        return self._sweep(traced)

    def _sweep(self, traced: bool) -> Op:
        root = self.fresh("runs")
        jsonl = self.fresh("trace").with_suffix(".jsonl")
        trace_out = self.fresh("spans").with_suffix(".json") if traced else None
        args = operation_argv(self.name, self.seed, str(root), str(jsonl))
        proc = self.r.run(self._command(args, trace_out))
        self._gate_sweep(proc, jsonl)
        run_dir = only_run_dir(root)
        op = Op(proc.wall_s, proc.cpu_s, SWEEP_CELLS, proc.rss_kb,
                tree_bytes(run_dir) if run_dir else 0)
        if trace_out is not None:
            op.traces = [[trace_out]]
        jsonl.unlink(missing_ok=True)
        shutil.rmtree(root, ignore_errors=True)
        return op

    def _gate_sweep(self, proc: Proc, jsonl: Path) -> None:
        """Oracle verdict per cell, executed/cached split and trace digest."""
        split = re.search(r"(\d+) scenarios; executed (\d+), cached (\d+)", proc.stdout)
        oracle = re.search(r"oracle: (\d+)/(\d+) cells clean", proc.stdout)
        if proc.rc not in (0, 1) or split is None or oracle is None:
            self.gate.attempted += SWEEP_CELLS
            self.gate.failed += SWEEP_CELLS
            self.gate.problems.append(f"{self.name}: run exited {proc.rc} without a verdict")
        else:
            clean = int(oracle.group(1))
            self.gate.attempted += SWEEP_CELLS
            self.gate.failed += SWEEP_CELLS - min(clean, SWEEP_CELLS)
            if clean < SWEEP_CELLS:
                self.gate.problems.append(f"oracle: {clean}/{SWEEP_CELLS} cells clean")
            self.gate.check(
                (int(split.group(1)), int(split.group(2))) == (SWEEP_CELLS, SWEEP_CELLS),
                f"expected {SWEEP_CELLS} cells, all executed: {split.group(0)}",
            )
        self.gate.check(
            self.reference is not None and sha256_file(jsonl) == self.reference,
            "merged trace sha256 differs from the reference vector sweep",
        )

    def _serve(self, traced: bool) -> Op:
        root = self.fresh("serve-runs")
        jsonl = self.fresh("trace").with_suffix(".jsonl")
        args = operation_argv(self.name, self.seed, str(root), str(jsonl))
        trace_out = self.fresh("spans").with_suffix(".json") if traced else None
        worker_out = self.fresh("worker-spans").with_suffix(".json") if traced else None
        coordinator = self.r.spawn(self._command(args, trace_out))
        url = self._await_endpoint(root, coordinator[0])
        reaped: list[Proc] = []
        if url is not None:
            worker = self.r.spawn(self._command(["work", "--connect", url], worker_out))

            def watch_worker() -> None:
                reaped.append(self.r.reap(*worker))
                if reaped[0].rc != 0:  # nobody will finish the campaign
                    coordinator[0].kill()

            watcher = threading.Thread(target=watch_worker)
            watcher.start()
        proc = self.r.reap(*coordinator)
        if url is not None:
            watcher.join()
        worker_proc = reaped[0] if reaped else None
        self.gate.check(worker_proc is not None and worker_proc.rc == 0,
                        "serve worker failed or never connected")
        self._gate_sweep(proc, jsonl)
        run_dir = only_run_dir(root)
        summary = _load_json(run_dir / "summary.json") if run_dir else None
        serve = (summary or {}).get("serve", {})
        self.gate.check(serve.get("quarantined") == 0,
                        "coordinator quarantined a submission")
        op = Op(proc.wall_s, proc.cpu_s + (worker_proc.cpu_s if worker_proc else 0.0),
                SWEEP_CELLS, max(proc.rss_kb, worker_proc.rss_kb if worker_proc else 0),
                tree_bytes(run_dir) if run_dir else 0, summary=summary)
        if traced:
            # The coordinator first: its root span is the operation's wall.
            op.traces = [[trace_out, worker_out]]
        jsonl.unlink(missing_ok=True)
        shutil.rmtree(root, ignore_errors=True)
        return op

    def _await_endpoint(self, root: Path, proc: subprocess.Popen) -> str | None:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and proc.poll() is None:
            for endpoint in root.glob("*/serve.json"):
                data = _load_json(endpoint)
                if data and "url" in data:
                    return data["url"]
            time.sleep(0.01)
        return None

    def _mc(self, traced: bool) -> Op:
        op = Op(0.0, 0.0, 0, 0, 0)
        for instance, expected in MC_INSTANCES:
            out = self.fresh("mc")
            trace_out = self.fresh("spans").with_suffix(".json") if traced else None
            args = ["mc", *mc_args(instance), "--out", str(out)]
            proc = self.r.run(self._command(args, trace_out))
            verdict = _load_json(out / "verdict.json") or {}
            self.gate.check(
                proc.rc == 0
                and verdict.get("verdict") == "HOLDS(exhaustive)"
                and verdict.get("stats") == expected,
                f"mc {instance}: expected HOLDS(exhaustive) with frontier {expected}",
            )
            op.wall_s += proc.wall_s
            op.cpu_s += proc.cpu_s
            op.cells += int(expected["cells"])
            op.rss_kb = max(op.rss_kb, proc.rss_kb)
            op.bytes_on_disk += tree_bytes(out) if out.is_dir() else 0
            if traced:
                op.traces.append([trace_out])
        return op


def _load_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


# -- metrics -------------------------------------------------------------------


def end_to_end(workload: Workload, seconds: float) -> dict[str, float]:
    workload.prepare()
    setup = [workload.setup_probe() for _ in range(SETUP_REPEATS)]
    # Closed loop over --seconds: start another operation while it is
    # expected to end nearer the deadline than stopping now would.
    ops = [workload.operation(traced=False)]
    while sum(op.wall_s for op in ops) + ops[-1].wall_s / 2 <= seconds:
        ops.append(workload.operation(traced=False))
    print(f"{len(ops)} operation(s), wall: "
          + " ".join(f"{op.wall_s:.3f}" for op in ops) + " s")
    print(f"{len(ops)} operation(s), cpu (user+sys of every process): "
          + " ".join(f"{op.cpu_s:.3f}" for op in ops) + " s")
    # CPU-time twins of the wall-time metrics, for judging host noise.
    print("cpu " + json.dumps({
        "verdict_cpu_s": statistics.median(op.cpu_s for op in ops),
        "cells_per_cpu_s": sum(op.cells for op in ops) / sum(op.cpu_s for op in ops),
    }))
    return {
        "setup_s": statistics.median(setup),
        "verdict_s": statistics.median(op.wall_s for op in ops),
        "cells_per_s": sum(op.cells for op in ops) / sum(op.wall_s for op in ops),
        "peak_rss_mb": max(op.rss_kb for op in ops) / 1024.0,
        "rundir_bytes_per_cell": statistics.median(
            op.bytes_on_disk / op.cells for op in ops
        ),
    }


@dataclass
class SpanRow:
    name: str
    start: float
    end: float
    parent: tuple | None
    children: float = 0.0


@dataclass
class Analysis:
    """What the span dumps of the traced operations add up to."""

    self_s: Counter = field(default_factory=Counter)
    incl_s: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    counters: Counter = field(default_factory=Counter)
    layers: Counter = field(default_factory=Counter)
    rtt_ms: list[float] = field(default_factory=list)
    mc_execute_s: float = 0.0
    wall_s: float = 0.0
    unattributed_s: float = 0.0


def analyze(groups: list[list[dict]]) -> Analysis:
    """Self time per span and layer, counters, and uncovered wall time.

    A group is the span dumps of one operation (the coordinator and its
    worker share one clock).  The first dump's ``run`` span is the
    operation's wall; the root of any later dump (the serve worker's
    process) is renamed ``worker.run``.  Self time is a span's duration
    minus its children's durations (children nest on one thread, so they
    never overlap).
    """
    out = Analysis()
    for group in groups:
        rows: dict[tuple, SpanRow] = {}
        for index, doc in enumerate(group):
            pid = doc["pid"]
            for span_id, name, start, end, parent, _thread in doc["spans"]:
                if index and name == "run":
                    name = "worker.run"
                rows[(pid, span_id)] = SpanRow(
                    name, start, end, (pid, parent) if parent else None
                )
            out.counters.update(doc["counters"])
        for row in rows.values():
            if row.parent in rows:
                rows[row.parent].children += row.end - row.start
        root = next((row for row in rows.values() if row.name == "run"), None)
        if root is None:
            continue
        out.wall_s += root.end - root.start
        intervals = []
        for row in rows.values():
            duration = row.end - row.start
            self_time = duration - row.children
            out.self_s[row.name] += self_time
            out.incl_s[row.name] += duration
            out.calls[row.name] += 1
            if row.name == "worker.run":
                # The worker loop (run_worker) outside its round trips.
                out.layers["serve"] += self_time
            if row.name in ("run", "worker.run"):
                continue
            out.layers[LAYER_OF[row.name]] += self_time
            intervals.append((max(row.start, root.start), min(row.end, root.end)))
            if row.name.startswith("serve.rtt."):
                out.rtt_ms.append(duration * 1000.0)
            if row.name == "sweep.run" and _has_ancestor(rows, row, "mc.check"):
                out.mc_execute_s += duration
        out.unattributed_s += (root.end - root.start) - _union(intervals)
    return out


def _has_ancestor(rows: dict, row: SpanRow, name: str) -> bool:
    parent = row.parent
    while parent in rows:
        if rows[parent].name == name:
            return True
        parent = rows[parent].parent
    return False


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def per_layer(workload: Workload) -> tuple[dict[str, float], list[str]]:
    workload.prepare()
    plain = workload.operation(traced=False)
    traced = workload.operation(traced=True)
    # Keep the last traced run's span dumps per workload for inspection.
    kept = ROOT / ".perfbench-work" / "spans" / workload.name
    shutil.rmtree(kept, ignore_errors=True)
    kept.mkdir(parents=True)
    groups = []
    for paths in traced.traces:
        docs = [doc for doc in map(_load_json, paths) if doc is not None]
        if docs:  # a traced process that died wrote nothing; its gate failed
            groups.append(docs)
        for path in paths:
            if path.exists():
                shutil.copy(path, kept / path.name)
    spans = analyze(groups)
    self_s, total = spans.self_s, spans.counters

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    serve = (traced.summary or {}).get("serve", {})
    hits, misses = total["cache.hits"], total["cache.misses"]
    kernel, fallback = total["vector.kernel_cells"], total["vector.fallback_cells"]
    metrics = {
        "space.build_s": self_s["space.build"],
        "request.cache_key_s": self_s["request.cache_key"],
        "request.cache_key_calls": total["request.cache_key_calls"],
        "request.cache_keys": total["request.cache_keys"],
        "cache.get_s": self_s["cache.get"],
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": ratio(hits, hits + misses),
        "cache.put_s": self_s["cache.put"],
        "cache.stores": total["cache.stores"],
        "cache.bytes_written": total["cache.bytes_written"],
        "harness.execute_s": self_s["harness.execute"],
        "harness.cells_executed": total["harness.cells_executed"],
        "engine.run_s": self_s["engine.run"],
        "vector.batch_s": self_s["vector.batch"],
        "vector.kernel_cells": kernel,
        "vector.fallback_cells": fallback,
        "vector.kernel_ratio": ratio(kernel, kernel + fallback),
        "sweep.run_s": self_s["sweep.run"],
        "check.cell_s": self_s["check.cell"],
        "check.cells": total["check.cells"],
        "check.failed": total["check.failed"],
        "trace.export_s": self_s["trace.export"],
        "trace.events": total["trace.events"],
        "trace.bytes": total["trace.bytes"],
        "rundir.open_s": self_s["rundir.open"],
        "rundir.record_cell_s": self_s["rundir.record_cell"],
        "rundir.summarize_s": self_s["rundir.summarize"],
        "rundir.finalize_s": self_s["rundir.finalize"],
        "mc.explore_s": self_s["mc.explore"],
        "mc.canonical_s": self_s["mc.canonical"],
        "mc.canonical_calls": spans.calls["mc.canonical"],
        "mc.states_generated": total["mc.states_generated"],
        "mc.states_visited": total["mc.states_visited"],
        "mc.revisit_pruned": total["mc.revisit_pruned"],
        "mc.dominance_pruned": total["mc.dominance_pruned"],
        "mc.leaves": total["mc.leaves"],
        "mc.states_per_s": ratio(total["mc.states_generated"],
                                 spans.incl_s["mc.explore"]),
        "mc.frontier_space_s": self_s["mc.frontier_space"],
        "mc.execute_s": spans.mc_execute_s,
        "mc.judge_s": self_s["mc.judge"],
        "serve.plan_s": spans.incl_s["serve.plan"],
        "serve.claim_s": self_s["serve.claim"],
        "serve.submit_s": self_s["serve.submit"],
        "serve.rtt_p50_ms": percentile(spans.rtt_ms, 50),
        "serve.rtt_p99_ms": percentile(spans.rtt_ms, 99),
        "serve.worker_wait_s": spans.incl_s["worker.run"]
        - spans.incl_s["serve.worker.execute"] - spans.incl_s["bench.payload_size"],
        "serve.payload_bytes": total["serve.payload_bytes"],
        "serve.finalize_s": self_s["serve.finalize"],
        "serve.shards": int(serve.get("shards", {}).get("total", 0)),
        "serve.requeued": int(serve.get("shards", {}).get("requeued", 0)),
        "serve.stale_submissions": int(serve.get("stale_submissions", 0)),
        "serve.duplicate_cells": int(serve.get("duplicate_cells", 0)),
        "serve.quarantined": int(serve.get("quarantined", 0)),
        "trace_overhead_s": traced.wall_s - plain.wall_s,
        "trace_overhead_ratio": ratio(traced.wall_s - plain.wall_s, plain.wall_s),
        "unattributed_ratio": ratio(spans.unattributed_s, spans.wall_s),
    }
    lines = [f"spans: {kept.relative_to(ROOT)}"]
    lines += share_table(workload.name, spans.layers, spans.unattributed_s, spans.wall_s)
    lines.append(
        f"tracing overhead: traced {traced.wall_s:.3f} s - untraced "
        f"{plain.wall_s:.3f} s = {metrics['trace_overhead_s']:+.3f} s"
    )
    return metrics, lines


def share_table(name: str, layers: dict[str, float], unattributed: float,
                wall: float) -> list[str]:
    ranked = sorted(layers.items(), key=lambda item: -item[1])
    lines = [f"self-time share of {wall:.3f} s traced wall ({name}):"]
    for layer, seconds in ranked + [("unattributed", unattributed)]:
        share = seconds / wall if wall else 0.0
        lines.append(f"  {layer:16s} {seconds:9.3f} s  {share:7.1%}")
    top_two = [layer for layer, _ in ranked[:2]]
    targets = TARGET_LAYERS[name]
    hit = any(layer in top_two for layer in targets)
    lines.append(
        f"target layer {'/'.join(targets)} in top two ({', '.join(top_two)}): "
        f"{'yes' if hit else 'NO'}"
    )
    return lines


# -- reporting -----------------------------------------------------------------


def fingerprint() -> dict[str, object]:
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    sys.path.insert(0, str(ROOT / "src"))
    from repro.vector import backend_name

    commit, dirty = None, None
    if (ROOT / ".git").exists():
        def git(*args: str) -> str:
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, check=False).stdout.strip()
        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain"))
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "vector_backend": backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "git_dirty": dirty,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work)
    gate = Gate()
    workload = Workload(args.workload, args.seed, runner, gate)
    try:
        if args.trace:
            metrics, lines = per_layer(workload)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            metrics, lines = end_to_end(workload, args.seconds), []
            units = END_TO_END_UNITS
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(fingerprint(), sort_keys=True))
    for line in lines:
        print(line)
    for name, value in metrics.items():
        moves = PER_LAYER[name][1] if args.trace else ""
        print(f"  {name:26s} {value:14.6g} {units[name]:6s} {moves}")
    print(f"fail_ratio {gate.failed}/{gate.attempted} = "
          f"{gate.failed / gate.attempted:.4f}")
    for problem in gate.problems:
        print(f"gate failure: {problem}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
