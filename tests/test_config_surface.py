"""Keep the configuration surface from re-growing (ROADMAP item 3).

Every ``BlobSeerConfig`` field and every ``build_*_scenario`` parameter
must be *set by some caller*: passed by keyword (or position) to the
class/builder somewhere under ``src/``, ``benchmarks/``, ``tests/`` or
``examples/``, or — for a ``**config`` call site — named in the same
file as a dict-literal key or a call keyword (``dict(...)`` or the
wrapper that forwards it).  A knob nobody sets only re-states a default:
make it a constant at its use site instead of adding it here.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

from repro.blobseer import BlobSeerClient, BlobSeerConfig, VersionManager
from repro.blobseer.allocation import make_strategy
from repro.cache import Cache
from repro.cluster import TestbedConfig
from repro.introspection import QueryEngine
from repro.robustness import (
    PrimaryHandle,
    ProviderManagerHandle,
    ReplicatedVersionManager,
    WarmStandbyProviderManager,
)
from repro.simulation import FlowNetwork
from repro.telemetry import MetricsRegistry
from repro.workloads import scenarios

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "tests", "examples")


def _surface(config=BlobSeerConfig):
    """Callable name -> its parameter names, in order."""
    surface = {config.__name__: [f.name for f in dataclasses.fields(config)]}
    for name, builder in vars(scenarios).items():
        if name.startswith("build_") and name.endswith("_scenario"):
            surface[name] = list(inspect.signature(builder).parameters)
    return surface


def parameters(fn):
    return list(inspect.signature(fn).parameters)


def _callee(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _unset(surface):
    """``callable.parameter`` names that no scanned caller sets."""
    passed = {name: set() for name in surface}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == Path(__file__).resolve():
                continue
            named, splatted = set(), set()
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Dict):
                    named.update(k.value for k in node.keys
                                 if isinstance(k, ast.Constant))
                elif isinstance(node, ast.Call):
                    keywords = {k.arg for k in node.keywords if k.arg}
                    named |= keywords
                    callee = _callee(node)
                    if callee in surface:
                        passed[callee] |= keywords
                        passed[callee].update(surface[callee][:len(node.args)])
                        if len(keywords) < len(node.keywords):
                            splatted.add(callee)
            # A ``**config`` call site names what it passes elsewhere in
            # its file: in a dict literal, a ``dict(...)`` call, or the
            # keywords of the wrapper that forwards them.
            for callee in splatted:
                passed[callee] |= named
    return sorted(f"{name}.{param}" for name, params in surface.items()
                  for param in params if param not in passed[name])


def test_every_config_field_and_builder_parameter_is_set_by_a_caller():
    assert _unset(_surface()) == []


def test_a_field_no_caller_sets_is_reported():
    """The scan must catch a dead knob being (re-)added."""
    grown = dataclasses.make_dataclass(
        "BlobSeerConfig", [("vm_cores", int, 1)], bases=(BlobSeerConfig,))
    assert _unset(_surface(grown)) == ["BlobSeerConfig.vm_cores"]


def test_the_surface_is_the_documented_size():
    surface = _surface()
    assert len(surface["BlobSeerConfig"]) == 16
    builder_params = sum(len(p) for n, p in surface.items() if n != "BlobSeerConfig")
    assert builder_params <= 85


def test_the_flow_network_takes_no_solver_knob():
    """The slot table replaced the list-building vector solver in place:
    no parameter selects a solver, a threshold or a table size."""
    assert list(inspect.signature(FlowNetwork.__init__).parameters) == [
        "self", "env", "latency", "backbone_capacity",
        "recompute_granularity_s", "incremental"]
    assert [f.name for f in dataclasses.fields(TestbedConfig)] == [
        "seed", "sites", "nic_in_mbps", "nic_out_mbps", "cores", "memory_mb",
        "disk_mb", "latency_local_s", "latency_cross_s", "backbone_mbps",
        "rate_granularity_s", "incremental_fairness"]


def test_nobody_is_told_the_capacity_of_a_tree():
    """A version's metadata tree is as wide as that version is long: the
    client works the capacity out from the sizes the version manager
    returns, so neither constructor takes one."""
    for actor in (VersionManager, BlobSeerClient):
        assert not [name for name in inspect.signature(actor.__init__).parameters
                    if "capacity" in name]


def test_the_replica_groups_and_handles_take_no_protocol_knob():
    """Detector settings, deadlines, batch sizes and retry budgets are
    module constants of ``repro.robustness.replication``: no caller ever
    set them, so no constructor (or ``handle()`` factory) takes them."""
    assert parameters(ReplicatedVersionManager.__init__) == [
        "self", "testbed", "vmanagers"]
    assert parameters(WarmStandbyProviderManager.__init__) == [
        "self", "deployment", "active", "standby"]
    for handle in (PrimaryHandle, ProviderManagerHandle):
        assert parameters(handle.__init__) == ["self", "group", "rng"]
    for group in (ReplicatedVersionManager, WarmStandbyProviderManager):
        assert parameters(group.handle) == ["self", "rng"]


def test_a_window_of_a_series_is_answered_one_way():
    """The materialized-rollup twin of ``window_stat`` is gone and stays
    gone: nothing selects how a window is answered, nothing subscribes
    to the sample stream, a cache is handed no environment to mirror its
    statistics into, and one module cuts windows out of series."""
    assert parameters(QueryEngine.__init__) == [
        "self", "metrics", "repository", "env", "window_s", "retention_s",
        "site_of"]
    assert parameters(QueryEngine.for_deployment) == [
        "deployment", "monitoring", "window_s", "retention_s"]
    assert not [name for name in vars(MetricsRegistry) if "listener" in name]
    assert parameters(Cache.__init__) == [
        "self", "name", "capacity_mb", "policy", "admission"]
    assert parameters(make_strategy) == ["name", "rng", "env"]

    importers = []
    for package in ("telemetry", "introspection"):
        for path in sorted((ROOT / "src" / "repro" / package).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                modules = ([alias.name for alias in node.names]
                           if isinstance(node, ast.Import)
                           else [node.module] if isinstance(node, ast.ImportFrom)
                           else [])
                if "bisect" in modules:
                    importers.append(f"{package}/{path.name}")
    assert importers == ["telemetry/metrics.py"]
