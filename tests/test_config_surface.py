"""Keep the configuration surface from re-growing (ROADMAP items 3, 6).

One rule for every constructor of ``src/repro``: a defaulted ``__init__``
parameter, a field of a config dataclass (``CONFIGS``) and a
``build_*_scenario`` parameter must each be *set by some caller* —
passed by keyword (or position) to the class / builder somewhere under
``src/``, ``benchmarks/``, ``tests/`` or ``examples/``, or, for a
``**config`` call site, named in the same file as a dict-literal key or
a call keyword (``dict(...)`` or the wrapper that forwards it); a
function that takes ``**kwargs`` and splats into a constructor passes on
what its own callers name.  ``super().__init__(...)`` sets the base
class's parameters, ``cls(...)`` the enclosing class's and
``REGISTRY[name](**kwargs)`` those of every class in a module-level dict
of classes.  A knob nobody sets only re-states a default: make it a
constant beside the comment that explains it instead of adding it here.

A knob's own unit test is not its caller.  For constructor parameters
and config fields the scan is run a second time over ``RUNS`` — what a
scenario, a bench or an example can reach, ``tests/`` left out — and what
that reports must be exactly ``TESTS_ONLY_PARAMETERS``; a public
top-level definition of ``src/repro`` nothing under ``RUNS`` uses must be
in ``TESTS_ONLY_DEFINITIONS``, and a public method or property of a
public class whose name nothing under ``RUNS`` uses must be in
``TESTS_ONLY_METHODS``.  The lists are debt, each entry with the reason
it is tolerated: they may shrink (a survivor that gains a real caller
fails the test until it is taken off), they do not grow.
(Builder parameters keep the any-caller rule: the golden worlds of
``tests/test_golden_observables.py`` shrink themselves through them.)
"""

import ast
import functools
import inspect
import re
from pathlib import Path

from repro.adaptation import ReplicationManager
from repro.blobseer import BlobSeerClient, VersionManager
from repro.blobseer.allocation import make_strategy
from repro.cache import Cache
from repro.introspection import QueryEngine
from repro.robustness import (
    PrimaryHandle,
    ProviderManagerHandle,
    ReplicatedVersionManager,
    WarmStandbyProviderManager,
)
from repro.simulation import FlowNetwork
from repro.telemetry import MetricsRegistry

ROOT = Path(__file__).resolve().parents[1]
#: Where a run can start from: the library, a bench or an example.
RUNS = ("src", "benchmarks", "examples")
SCANNED = RUNS + ("tests",)
#: Dataclasses whose every field is a knob (their ``__init__`` is generated).
CONFIGS = ("BlobSeerConfig", "TestbedConfig", "MonitoringConfig",
           "SecurityConfig", "RetryPolicy")


def _parse(paths):
    return [ast.parse(path.read_text(), str(path)) for path in paths]


@functools.cache
def _sources(tops=SCANNED):
    """Every module under *tops* but this one, parsed — never imported."""
    return _parse(path for top in tops
                  for path in sorted((ROOT / top).rglob("*.py"))
                  if path != Path(__file__).resolve())


@functools.cache
def _library():
    return _parse(sorted((ROOT / "src" / "repro").rglob("*.py")))


def _base_names(cls):
    return [getattr(b, "attr", getattr(b, "id", None)) for b in cls.bases]


def _surface(modules=None):
    """Callable name -> ``(parameters in call order, the checked ones)``.

    Checked are the defaulted parameters of a class's ``__init__``, all
    fields of a ``CONFIGS`` dataclass and all parameters of a scenario
    builder.
    """
    surface = {}
    for module in _library() if modules is None else modules:
        for node in ast.walk(module):
            if isinstance(node, ast.ClassDef) and node.name in CONFIGS:
                fields = [stmt.target.id for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign)]
                surface[node.name] = (fields, fields)
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                        args = stmt.args
                        named = [a.arg for a in args.posonlyargs + args.args][1:]
                        defaulted = named[len(named) - len(args.defaults):]
                        defaulted += [a.arg for a, default
                                      in zip(args.kwonlyargs, args.kw_defaults)
                                      if default is not None]
                        if defaulted:
                            assert node.name not in surface, node.name
                            surface[node.name] = (
                                named + [a.arg for a in args.kwonlyargs], defaulted)
            elif (isinstance(node, ast.FunctionDef)
                  and node.name.startswith("build_")
                  and node.name.endswith("_scenario")):
                args = node.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                surface[node.name] = (params, params)
    return surface


def parameters(fn):
    return list(inspect.signature(fn).parameters)


def _unset(surface, modules=None):
    """``callable.parameter`` names that no scanned caller sets."""
    modules = _sources() if modules is None else modules
    bases = {node.name: _base_names(node) for module in modules
             for node in ast.walk(module) if isinstance(node, ast.ClassDef)}

    def owner(name, seen=()):
        """The surface entry a call to *name* fills: itself, or — for a
        class that defines no defaulted ``__init__`` — its nearest base."""
        if name in surface:
            return name
        for base in bases.get(name, ()):
            if base not in seen:
                found = owner(base, seen + (name,))
                if found:
                    return found
        return None

    #: Module-level dicts of classes (``PLANNERS = {cls.name: cls, ...}``):
    #: registry name -> the surface entries ``REGISTRY[key](...)`` may fill.
    registries = {}
    for module in modules:
        for stmt in module.body:
            if (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Dict)
                    and stmt.value.values):
                classes = [owner(getattr(value, "id", None))
                           for value in stmt.value.values]
                if all(classes):
                    registries.update({target.id: classes
                                       for target in stmt.targets
                                       if isinstance(target, ast.Name)})

    def registry_of(node):
        return (registries.get(getattr(node.value, "id", None))
                if isinstance(node, ast.Subscript) else None)

    def callees(call, enclosing, bound):
        """The surface entries *call* fills, and whether its positional
        arguments can be matched to parameters (not through a registry:
        which of its classes is built is not known at the call site)."""
        func = call.func
        through_registry = registry_of(func) or bound.get(getattr(func, "id", None))
        if through_registry:
            return through_registry, False
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if enclosing is not None and name == "cls":
            found = owner(enclosing.name)
        elif (enclosing is not None and name == "__init__"
                and isinstance(func.value, ast.Call)
                and getattr(func.value.func, "id", None) == "super"):
            found = next(filter(None, map(owner, _base_names(enclosing))), None)
        else:
            found = owner(name)
        return ([found] if found else []), True

    passed = {name: set() for name in surface}
    #: function name -> keywords its callers pass / surface callees it
    #: splats its own ``**kwargs`` parameter's scope into.
    keywords_to, forwards = {}, {}
    for module in modules:
        named, splatted = set(), set()

        def visit(node, enclosing, function, bound):
            if isinstance(node, ast.ClassDef):
                enclosing = node
            elif isinstance(node, ast.FunctionDef):
                if node.args.kwarg:
                    function = node
                # ``cls = REGISTRY[name]`` ... ``cls(**kwargs)``
                bound = {**bound, **{
                    target.id: registry_of(stmt.value)
                    for stmt in ast.walk(node) if isinstance(stmt, ast.Assign)
                    and registry_of(stmt.value)
                    for target in stmt.targets if isinstance(target, ast.Name)}}
            elif isinstance(node, ast.Dict):
                named.update(k.value for k in node.keys
                             if isinstance(k, ast.Constant))
            elif isinstance(node, ast.Call):
                keywords = {k.arg for k in node.keywords if k.arg}
                named.update(keywords)
                func = node.func
                keywords_to.setdefault(
                    getattr(func, "attr", getattr(func, "id", None)), set()
                ).update(keywords)
                targets, positional = callees(node, enclosing, bound)
                for target in targets:
                    passed[target] |= keywords
                    if positional:
                        passed[target].update(surface[target][0][:len(node.args)])
                    if len(keywords) < len(node.keywords):
                        splatted.add(target)
                        if function is not None:
                            forwards.setdefault(function.name, set()).add(target)
            for child in ast.iter_child_nodes(node):
                visit(child, enclosing, function, bound)

        visit(module, None, None, {})
        # A ``**config`` call site names what it passes elsewhere in
        # its file: in a dict literal, a ``dict(...)`` call, or the
        # keywords of the wrapper that forwards them.
        for target in splatted:
            passed[target] |= named
    # A function that takes ``**kwargs`` and splats into a constructor
    # (``Testbed.add_node(name, **overrides)``) passes on the keywords
    # its own callers use, whichever file they are in.
    for function, targets in forwards.items():
        for target in targets:
            passed[target] |= keywords_to.get(function, set())
    return sorted(f"{name}.{param}" for name, (_, checked) in surface.items()
                  for param in checked if param not in passed[name])


def test_every_config_field_and_builder_parameter_is_set_by_a_caller():
    assert _unset(_surface()) == []


def _tests_only_parameters(surface, modules):
    """Constructor parameters and config fields no module of *modules*
    (the scan with ``tests/`` left out) sets."""
    return [name for name in _unset(surface, modules)
            if not name.startswith("build_")]


#: The constructor parameters and config fields only ``tests/`` sets, each
#: with why it is tolerated and the ROADMAP item that owes it a caller.
TESTS_ONLY_PARAMETERS = {
    "BlobSeerDeployment.sink":
        "the seam through which tests observe the event stream",
    "ControlLoop.max_decisions":
        "memory bound; its overflow test needs a small ring (item 1 b)",
    "DecisionJournal.capacity":
        "memory bound; its overflow test needs a small ring (item 1 b)",
    "DosReader.parallel":
        "the read flood of paper IV-C, driven end to end by test_read_dos only (item 4 d)",
    "DosReader.read_mb":
        "the read flood of paper IV-C, driven end to end by test_read_dos only (item 4 d)",
    "DosReader.start_at":
        "the read flood of paper IV-C, driven end to end by test_read_dos only (item 4 d)",
    "FlowNetwork.backbone_capacity":
        "testbed topology, as an address describes a deployment (item 2 a)",
    "Histogram.max_samples":
        "memory bound; its overflow test needs a small reservoir (item 1 b)",
    "MonitoringService.filters":
        "the paper's III-B filter stage at the monitoring services (item 4 d)",
    "RetryPolicy.deadline_s":
        "safety code; its expiry test needs a short budget (item 1 b)",
    "TestbedConfig.cores":
        "testbed topology, as an address describes a deployment (item 2 a)",
    "TestbedConfig.disk_mb":
        "testbed topology, as an address describes a deployment (item 2 a)",
    "TestbedConfig.latency_cross_s":
        "testbed topology; BENCH-SENS sweeps the latencies next (item 2 a)",
    "TestbedConfig.latency_local_s":
        "testbed topology; BENCH-SENS sweeps the latencies next (item 2 a)",
    "TestbedConfig.sites":
        "testbed topology, as an address describes a deployment (item 2 a)",
}


def test_a_knob_is_not_kept_alive_by_its_own_unit_test():
    """With ``tests/`` left out of the caller scan, what is unset is the
    pinned debt and nothing else: 51 -> 15 parameters (PR 24)."""
    assert len(TESTS_ONLY_PARAMETERS) <= 15
    assert _tests_only_parameters(_surface(), _sources(RUNS)) == sorted(
        TESTS_ONLY_PARAMETERS)


def _tests_only_definitions(library, callers, reexporters=()):
    """Public top-level classes and functions of *library* that nothing
    mentions: no module of *callers* or *reexporters* by name or as an
    attribute, and no module of *callers* in an import (what a module
    imports it is taken to use — except a package ``__init__``, a
    re-exporter, which imports or names in its lazy map in order to
    export)."""
    used = set()
    for module in (*callers, *reexporters):
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias) and module in callers:
                used.add(node.name.rpartition(".")[2])
    return sorted(stmt.name for module in library for stmt in module.body
                  if isinstance(stmt, (ast.ClassDef, ast.FunctionDef))
                  and not stmt.name.startswith("_") and stmt.name not in used)


#: The public definitions only ``tests/`` uses, each with why it stays.
TESTS_ONLY_DEFINITIONS = {
    "DosReader":
        "paper IV-C names read-intensive DoS; test_read_dos is its one end-to-end check",
    "LocalKV":
        "the zero-cost fake the segment-tree tests drain synchronously",
    "RecordingSink":
        "the fake event sink tests observe the event stream through",
    "SamplingFilter":
        "second stage of the kept filter-chain test of MonitoringService.filters",
    "TypeFilter":
        "the filter the kept MonitoringService.filters test installs",
    "WindowAggregateFilter":
        "the paper's III-B aggregation at the monitoring services",
    "read_flood_policy":
        "the policy that detects DosReader in test_read_dos",
    "steady_append_load":
        "the load the tier-1 chaos smoke (seeds 42, 43) drives",
}


def test_a_definition_is_not_kept_alive_by_its_own_unit_test():
    """19 -> 8 public definitions only tests import (PR 24)."""
    assert len(TESTS_ONLY_DEFINITIONS) <= 8
    paths = [path for top in RUNS for path in sorted((ROOT / top).rglob("*.py"))]
    inits = [path for path in paths if path.name == "__init__.py"]
    assert _tests_only_definitions(
        _library(), _parse(path for path in paths if path not in inits),
        reexporters=_parse(inits)) == sorted(TESTS_ONLY_DEFINITIONS)


_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _tests_only_methods(library, callers):
    """``Class.method`` for each public method or property defined in a
    public top-level class of *library* whose name no module of *callers*
    uses: as an attribute, a bare name, a call keyword or an identifier
    inside a string constant (``tracing.py``'s boundary tuples,
    ``_forwarded("remote_allocate")``).  A docstring is not a use."""
    used = set()
    for module in callers:
        docstrings = {id(node.value) for node in ast.walk(module)
                      if isinstance(node, ast.Expr)
                      and isinstance(node.value, ast.Constant)}
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                used.add(node.arg)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings):
                used.update(_IDENTIFIER.findall(node.value))
    return sorted(f"{cls.name}.{stmt.name}" for module in library
                  for cls in module.body if isinstance(cls, ast.ClassDef)
                  and not cls.name.startswith("_")
                  for stmt in cls.body if isinstance(stmt, ast.FunctionDef)
                  and not stmt.name.startswith("_") and stmt.name not in used)


#: The public methods and properties only ``tests/`` uses, each with why
#: it stays.
TESTS_ONLY_METHODS = {
    "FaultInjector.active_partitions":
        "fault-model query; item 1 (b)'s fault generator owes it a caller",
    "FaultInjector.partition_site":
        "site-wide partition; item 1 (b)'s fault generator owes it a caller",
    "HotspotScenario.cache_report":
        "GOLDEN[hotspot] hashes it (tests/test_golden_observables.py)",
    "RecordingSink.of_type":
        "the seam through which tests read the recorded event stream",
}


def test_a_method_is_not_kept_alive_by_its_own_unit_test():
    """39 -> 4 public methods and properties only tests use."""
    assert len(TESTS_ONLY_METHODS) <= 5
    assert _tests_only_methods(_library(), _sources(RUNS)) == sorted(
        TESTS_ONLY_METHODS)


#: A library, what runs it, and its unit test: one method only the test
#: calls and a docstring names, one only a string tuple names, and a
#: property read through an attribute.
_METHODS = '''
class Store:
    """Holds keys; ``Store.dump`` writes them out."""

    def put(self, key): ...

    def dump(self): ...

    def traced(self): ...

    @property
    def size(self): ...

    def _helper(self): ...


class _Hidden:
    def unreached(self): ...
'''
_RUNS_IT = '''
BOUNDARIES = (("store", "library.Store.traced"),)
store = Store()
store.put(1)
print(store.size)
'''
_TESTS_IT = "Store().dump()"


def test_a_method_only_a_test_or_a_docstring_names_is_reported():
    """``dump`` is called by the tests module and named in a docstring,
    and neither is a use; ``traced``, named only in a string tuple, and
    ``size``, read as an attribute, are.  Private classes and methods are
    out of scope.  A pinned method that gains a real caller no longer
    matches its pin."""
    library, runs, tests = map(ast.parse, (_METHODS, _RUNS_IT, _TESTS_IT))
    assert _tests_only_methods([library], [library, runs, tests]) == []
    pinned = ["Store.dump"]
    assert _tests_only_methods([library], [library, runs]) == pinned
    real_caller = ast.parse("store.dump()")
    assert _tests_only_methods([library], [library, runs, real_caller]) != pinned


#: A library and its callers in one module: each class has one parameter
#: nobody sets, next to parameters set only indirectly.
_SYNTHETIC = """
class Base:
    def __init__(self, a, via_super=1, dead=2): ...

class Child(Base):
    def __init__(self, b, via_cls=3):
        super().__init__(b, via_super=4)

    @classmethod
    def make(cls):
        return cls(5, via_cls=6)

class Inheritor(Child):
    pass

@dataclass
class BlobSeerConfig:
    data_providers: int = 20
    vm_cores: int = 1

class Node:
    def __init__(self, name, nic=1.0, ram=2.0, *, disk=3.0): ...

def add_node(name, **overrides):
    return Node(name, **dict(disk=4.0), **overrides)

Inheritor(7)
BlobSeerConfig(data_providers=8)
add_node("n", nic=9.0)
"""


def test_a_field_no_caller_sets_is_reported():
    """The scan must catch a dead knob being (re-)added, on a config
    dataclass or on any constructor — and only that: a parameter set
    through ``super().__init__``, ``cls(...)``, a subclass without an
    ``__init__`` of its own, a same-file ``**splat`` or a ``**kwargs``
    forwarder has a caller."""
    modules = [ast.parse(_SYNTHETIC)]
    surface = _surface(modules)
    assert surface["Node"] == (["name", "nic", "ram", "disk"],
                               ["nic", "ram", "disk"])
    assert _unset(surface, modules) == [
        "Base.dead", "BlobSeerConfig.vm_cores", "Node.ram"]


#: A registry of classes built through ``REGISTRY[kind](**kwargs)``, the
#: one caller that can run — and the unit tests beside it.
_REGISTRY = """
class Greedy:
    def __init__(self, unused=1, step=2): ...

class Bandit:
    def __init__(self, rng, step=2, eps=3, bound=4): ...

KINDS = {"greedy": Greedy, "bandit": Bandit}

def make(kind, rng=None, **kwargs):
    cls = KINDS[kind]
    if cls is Bandit:
        return cls(rng, **kwargs)
    return cls(**kwargs)

make("greedy", step=5)
"""
_ITS_TESTS = """
make("bandit", eps=6)
Bandit(None, bound=7)
"""


def test_a_registry_call_credits_its_keywords_and_a_unit_test_is_no_caller():
    """``KINDS[kind](**kwargs)`` sets, on every class of the registry,
    what ``make``'s callers name (never a positional: which class is
    built is not known there).  A parameter only the tests module sets
    passes the any-caller scan and is reported by the scan without it;
    a pinned survivor that gains a real caller no longer matches its pin."""
    library, tests = ast.parse(_REGISTRY), ast.parse(_ITS_TESTS)
    surface = _surface([library])
    assert _unset(surface, [library, tests]) == ["Greedy.unused"]
    pinned = ["Bandit.bound", "Bandit.eps", "Greedy.unused"]
    assert _tests_only_parameters(surface, [library]) == pinned
    real_caller = ast.parse("make('bandit', bound=8)")
    assert _tests_only_parameters(surface, [library, real_caller]) != pinned


def test_a_reexport_is_not_a_use_of_a_definition():
    """Neither an import in a package ``__init__`` nor a name in its
    ``lazy_exports`` map uses what it exports."""
    library = ast.parse("class Used: ...\nclass Exported: ...\n"
                        "def idle(): ...\ndef _private(): ...")
    package = ast.parse("from .library import Used, Exported, idle\n"
                        "__all__ = ['Used', 'Exported', 'idle']")
    lazy_package = ast.parse(
        "__getattr__, __dir__, __all__ = lazy_exports(__name__, {\n"
        "    'library': ['Used', 'Exported', 'idle']})")
    bench = ast.parse("from library import Used")
    assert _tests_only_definitions(
        [library], [library, bench],
        reexporters=[package, lazy_package]) == ["Exported", "idle"]


def test_the_surface_is_the_documented_size():
    """29 -> 15 config fields and 122 -> 71 builder parameters;
    293 -> 240 -> 193 -> 186 defaulted constructor parameters and config
    fields, 311 -> 264 -> 257 checked in all (the last step: one loop
    class instead of two, and a query engine over series only).  Each
    bound leaves a little room to add what a caller needs; none leaves
    room for a second round of "just in case"."""
    checked = {name: len(params) for name, (_, params) in _surface().items()}
    assert checked["BlobSeerConfig"] == 15
    builders = sum(count for name, count in checked.items()
                   if name.startswith("build_"))
    assert builders <= 85
    assert sum(checked.values()) - builders <= 190
    assert sum(checked.values()) <= 262


def test_the_flow_network_takes_no_solver_knob():
    """The slot table replaced the list-building vector solver in place:
    no parameter selects a solver, a threshold or a table size — and the
    testbed configures neither the backbone nor the fairness pass (nor
    re-states a node's NIC and memory defaults)."""
    assert parameters(FlowNetwork.__init__) == [
        "self", "env", "latency", "backbone_capacity",
        "recompute_granularity_s", "incremental"]
    assert _surface()["TestbedConfig"][0] == [
        "seed", "sites", "cores", "disk_mb", "latency_local_s",
        "latency_cross_s", "rate_granularity_s"]


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
    set them, so no constructor (or ``handle()`` factory) takes them.
    Nor is the replication manager told which detector to believe or how
    long a repair may take: it reads the deployment it is given."""
    assert parameters(ReplicationManager.__init__) == [
        "self", "deployment", "target_replication", "interval_s"]
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
        "self", "metrics", "env", "window_s"]
    assert parameters(QueryEngine.for_deployment) == ["deployment", "window_s"]
    assert not [name for name in vars(MetricsRegistry) if "listener" in name]
    assert parameters(Cache.__init__) == ["self", "name", "capacity_mb"]
    assert parameters(make_strategy) == ["name", "rng"]

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
