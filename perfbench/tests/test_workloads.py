"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest perfbench/tests -q

Workload inputs must be a pure function of ``(workload, seed)``, and
``BENCHMARK.json`` must name exactly the metrics run.py prints.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import END_TO_END_UNITS  # noqa: E402
from workloads import (  # noqa: E402
    MC_INSTANCES,
    PER_LAYER,
    WORKLOADS,
    mc_args,
    request_keys_digest,
)

SEEDED = [name for name in WORKLOADS if name != "mc-verdict"]


@pytest.mark.parametrize("workload", SEEDED)
def test_same_seed_same_request_keys_other_seed_different(workload):
    first = request_keys_digest(workload, 7)
    assert request_keys_digest(workload, 7) == first
    assert request_keys_digest(workload, 8) != first


@pytest.mark.parametrize("instance", [instance for instance, _ in MC_INSTANCES])
def test_mc_arguments_carry_no_seed(instance):
    assert "--seed" not in mc_args(instance)


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in PER_LAYER.items()
    }
