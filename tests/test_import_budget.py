"""A run compiles only the code it reaches (DESIGN.md, "Imports").

Importing a package is free: ``repro`` and every subpackage resolve
their public names on first use.  A scenario builder imports the engines
it builds where it builds them, and annotation-only imports sit under
``TYPE_CHECKING``.  So a run that builds no engine loads none, the
kernel loads nothing but itself and its tracer, and nothing is imported
once a scenario runs: compiling never moves into the measured phase.

What a test process has imported depends on every test before it, so
each check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).resolve().parent

#: Prints the ``repro`` modules loaded so far, one JSON list per call.
_PRELUDE = """
import json, sys

def loaded():
    print(json.dumps(sorted(m for m in sys.modules
                            if m == "repro" or m.startswith("repro."))))
"""


def _fresh(script: str) -> list:
    """Run *script* in a new interpreter; what each ``loaded()`` printed."""
    result = subprocess.run(
        [sys.executable, "-c", _PRELUDE + script],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return [json.loads(line) for line in result.stdout.splitlines()]


def _under(module: str, prefixes) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def test_repro_names_every_subpackage():
    packages = {init.parent.name for init in PACKAGE.glob("*/__init__.py")}
    assert set(repro.__all__) - {"__version__"} == packages


#: What a write or fan-out run without monitoring never builds.
NOT_BUILT = ("repro.security", "repro.decision", "repro.introspection",
             "repro.adaptation", "repro.monitoring", "repro.cloud",
             "repro.robustness.chaos", "repro.telemetry.export",
             "repro.telemetry.critical_path")


def test_a_build_loads_only_the_engines_it_builds():
    plain, defended = _fresh("""
from repro.workloads.scenarios import (
    build_dos_scenario, build_fanout_scenario, build_write_scenario)

build_fanout_scenario(writers=2, data_providers=4, metadata_providers=1)
build_write_scenario(clients=2, data_providers=4, metadata_providers=1,
                     with_monitoring=False)
loaded()
build_dos_scenario(n_clients=2, malicious_fraction=0.5, data_providers=4,
                   metadata_providers=1, monitoring_services=2)
loaded()
""")
    assert "repro.blobseer.deployment" in plain
    assert [m for m in plain if _under(m, NOT_BUILT)] == []
    assert "repro.security.framework" in defended
    # Self-protection runs on the one ControlLoop; only the cache tuner
    # compiles the planners.
    assert "repro.decision.planners" not in defended


def test_the_kernel_loads_itself_and_its_tracer_only():
    """Every name of ``repro.simulation`` resolved: the kernel pulls in
    the null tracer it defaults to, and no other telemetry."""
    (modules,) = _fresh("from repro.simulation import *\nloaded()")
    assert "repro.simulation.network" in modules
    shells = {"repro", "repro.simulation", "repro.telemetry",
              "repro.telemetry.tracer"}
    assert [m for m in modules
            if m not in shells and not m.startswith("repro.simulation.")] == []


#: Each scenario builder at toy size, and where its run stops.
SMALL_RUNS = {
    "build_write_scenario": (dict(
        clients=2, data_providers=6, metadata_providers=2, op_mb=128.0,
        monitoring_services=2), None),
    "build_fanout_scenario": (dict(
        writers=6, ops_per_writer=2, data_providers=8, metadata_providers=2,
        vm_shards=2, pm_shards=2, vm_batch=True, ramp_s=0.05), None),
    "build_dos_scenario": (dict(
        n_clients=6, malicious_fraction=0.5, data_providers=12,
        metadata_providers=2, monitoring_services=2, op_mb=256.0,
        attack_start=5.0, attack_stagger_s=3.0, attack_parallel=16,
        scan_interval_s=5.0, history_pull_interval_s=2.0,
        flush_interval_s=1.0, confirmations=1), 30.0),
    "build_hotspot_scenario": (dict(
        readers=2, dataset_chunks=16, chunk_size_mb=4.0, reads_per_client=20,
        data_providers=6, with_caches=True, chunk_cache_mb=16.0,
        with_tuner=True, tuner_interval_s=0.5), None),
    "build_disturbance_scenario": (dict(
        readers=2, dataset_chunks=16, duration=60.0, shift_at=20.0,
        churn_at=40.0, churn_heal_s=10.0, churn_providers=1,
        data_providers=6, with_journal=True), None),
    "build_contention_scenario": (dict(
        readers=2, dataset_chunks=16, load_writers=2, shift_at=20.0,
        duration=45.0, with_journal=True), None),
}


@pytest.mark.parametrize("builder", sorted(SMALL_RUNS))
def test_the_measured_phase_imports_nothing(builder):
    """Snapshot the loaded modules after the build (and the dataset
    preload, which the bench does in set-up), run, compare."""
    kwargs, until = SMALL_RUNS[builder]
    built, ran = _fresh(f"""
from repro.workloads import scenarios

scenario = scenarios.{builder}(**{kwargs!r})
if hasattr(scenario, "preload"):
    scenario.preload()
loaded()
scenario.run(until={until!r})
loaded()
""")
    assert sorted(set(ran) - set(built)) == []
