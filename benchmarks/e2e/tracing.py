"""Span tracing from outside the program, for the benchmark's traced run.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces the public entry points named in :data:`BOUNDARIES` with
wrappers, at class or module level, and :meth:`Tracer.uninstall` puts
the originals back.  A wrapper opens a *span* in the entry point's layer
while the wrapped code runs:

- a plain function is one span per call;
- a generator function is one span per **resume**: the span opens when
  the generator is sent a value or thrown an exception and closes at its
  next ``yield`` or at its return.  Simulated processes are suspended
  generators, so only this accounts ``yield from`` chains correctly:
  a chain ``client.append -> tree_update -> MetadataStore.put`` suspended
  in the innermost generator costs no host time, and on resume the three
  spans nest again in the same order;
- ``Environment.process``, ``call_at`` and ``call_later`` are wrapped
  too, so a process or a scheduled callback that no boundary names is
  still charged to the layer whose module defines its code.  Private
  names are never referenced.

One stack of open spans charges *self time*: a span's duration minus the
time its child spans cover.  Spans are aggregated in memory by
(layer, boundary, parent layer) and reported once, when the run ends.
With ``sample_every=N`` the raw spans of every N-th client operation are
kept as well, with the operation's id carried into the processes and
callbacks the operation starts.

The clock is read first on entry and last on exit, so a span is charged
its own bookkeeping: a layer's traced self time includes the cost of
tracing the spans it opened (the span count is reported beside it), and
none of that cost falls outside every span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["BOUNDARIES", "MODULE_LAYERS", "LAYERS", "Boundary", "Tracer"]

#: Layer of a process or callback, by the module that defines its code
#: (first matching prefix wins, so more specific prefixes come first).
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.simulation.network", "network"),
    ("repro.simulation", "simulation"),
    ("repro.cluster", "cluster"),
    ("repro.blobseer.client", "blobseer.client"),
    ("repro.blobseer.version_manager", "blobseer.version_manager"),
    ("repro.blobseer.sharding", "blobseer.version_manager"),
    ("repro.blobseer.provider_manager", "blobseer.provider_manager"),
    ("repro.blobseer.allocation", "blobseer.provider_manager"),
    ("repro.blobseer.provider", "blobseer.provider"),
    ("repro.blobseer.metadata", "blobseer.metadata"),
    ("repro.blobseer.segment_tree", "blobseer.metadata"),
    ("repro.blobseer.rpc", "blobseer.rpc"),
    ("repro.cache", "cache"),
    ("repro.monitoring", "monitoring"),
    ("repro.introspection", "introspection"),
    ("repro.security", "security"),
    ("repro.adaptation", "adaptation"),
    ("repro.decision", "adaptation"),
    ("repro.telemetry", "telemetry"),
    ("repro.workloads", "workloads"),
)

#: Classes whose layer differs from their module's: the group-commit
#: gate lives in ``rpc`` but is the version manager's entry queue.
CLASS_LAYERS: Dict[Tuple[str, str], str] = {
    ("repro.blobseer.rpc", "GroupCommitGate"): "blobseer.version_manager",
}

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for _, layer in MODULE_LAYERS))


def _transfer_kind(args: tuple, kwargs: dict) -> str:
    """``FlowNetwork.transfer(self, src, dst, size, ...)``: control
    messages carry no payload and never enter the bandwidth solver."""
    size = args[3] if len(args) > 3 else kwargs.get("size", 0.0)
    return "payload" if size > 1e-9 else "message"


#: The declarative boundary table: (layer, "module" or "module:Class",
#: names or "*" for every public function the class defines, options).
#: Options: ``op_root`` starts a client operation (the unit raw spans
#: are sampled by); ``subclasses`` also wraps overrides in subclasses;
#: ``variants`` splits one entry point into several named boundaries.
BOUNDARIES: Tuple[Tuple[str, str, Any, Dict[str, Any]], ...] = (
    ("simulation", "repro.simulation.engine:Environment", ("step",), {}),
    ("network", "repro.simulation.network:FlowNetwork",
     ("transfer", "message", "abort", "abort_matching", "refresh"),
     {"variants": {"transfer": _transfer_kind}}),
    ("cluster", "repro.cluster.faults:FaultInjector", "*", {}),
    ("cluster", "repro.cluster.node:PhysicalNode", "*", {}),
    ("blobseer.client", "repro.blobseer.client:BlobSeerClient",
     ("create_blob", "write", "append", "read"), {"op_root": True}),
    ("blobseer.version_manager", "repro.blobseer.version_manager:VersionManager",
     ("remote_create_blob", "remote_ticket", "remote_complete",
      "remote_get_latest"), {}),
    ("blobseer.version_manager", "repro.blobseer.sharding:ShardRouter", "*", {}),
    ("blobseer.version_manager", "repro.blobseer.rpc:GroupCommitGate",
     ("submit",), {}),
    ("blobseer.provider_manager", "repro.blobseer.provider_manager:ProviderManager",
     ("allocate", "remote_allocate"), {}),
    ("blobseer.provider", "repro.blobseer.provider:DataProvider",
     ("ingest", "serve", "delete_chunk"), {}),
    ("blobseer.metadata", "repro.blobseer.segment_tree",
     ("tree_update", "tree_query"), {}),
    ("blobseer.metadata", "repro.blobseer.metadata:MetadataStore",
     ("get", "put"), {}),
    ("blobseer.rpc", "repro.blobseer.rpc",
     ("request_response", "with_retries", "wait_or_timeout",
      "make_timeout_error"), {}),
    ("cache", "repro.cache.core:Cache",
     ("lookup", "get", "put", "invalidate", "resize"), {}),
    ("monitoring", "repro.monitoring.pipeline:MonitoringStack", ("emit",), {}),
    ("monitoring", "repro.monitoring.service:MonitoringService", ("ingest",), {}),
    ("monitoring", "repro.monitoring.filters:FilterChain", ("apply",), {}),
    ("monitoring", "repro.monitoring.repository:StorageRepository", ("store",), {}),
    ("monitoring", "repro.monitoring.repository:StorageServer", ("offer",), {}),
    ("introspection", "repro.introspection.query:QueryEngine", "*", {}),
    ("introspection", "repro.introspection.aggregator:IntrospectionLayer", "*", {}),
    ("introspection", "repro.introspection.provenance:DecisionJournal", "*", {}),
    ("security", "repro.security.history:UserActivityHistory", ("record",), {}),
    ("security", "repro.security.history:IntrospectionActivitySource",
     ("pull_once",), {}),
    ("security", "repro.security.detection:DetectionEngine", ("scan_once",), {}),
    ("security", "repro.security.enforcement:PolicyEnforcement", ("apply",), {}),
    ("adaptation", "repro.adaptation.controller:ControlLoop", ("step",),
     {"subclasses": True}),
    ("adaptation", "repro.decision.arbiter:Arbiter", ("admit",), {}),
    ("telemetry", "repro.telemetry.metrics:MetricsRegistry",
     ("counter", "gauge", "histogram", "series", "sample"), {}),
    ("telemetry", "repro.telemetry.metrics:Counter", ("inc",), {}),
    ("telemetry", "repro.telemetry.metrics:Gauge", ("set", "add"), {}),
    ("telemetry", "repro.telemetry.metrics:Histogram", ("observe",), {}),
    ("telemetry", "repro.telemetry.metrics:TimeSeries", ("record",), {}),
)

# Aggregate row layout, one row per (boundary, parent layer).
_CALLS, _SPANS, _INCLUSIVE, _SELF, _SIM, _RAISED = range(6)


class Boundary:
    """One traced entry point, or the origin of a process or callback."""

    __slots__ = ("layer", "name", "op_root", "is_generator", "rows")

    def __init__(self, layer: str, name: str, op_root: bool = False,
                 is_generator: bool = False) -> None:
        self.layer = layer
        self.name = name
        self.op_root = op_root
        self.is_generator = is_generator
        #: parent layer -> [calls, spans, inclusive_s, self_s, sim_s, raised]
        self.rows: Dict[Optional[str], list] = {}

    def row(self, parent_layer: Optional[str]) -> list:
        row = self.rows.get(parent_layer)
        if row is None:
            row = self.rows[parent_layer] = [0, 0, 0.0, 0.0, 0.0, 0]
        return row


class Tracer:
    """The layer stack, the aggregates and the installed wrappers.

    *sim_clock* returns the simulated time (set it once the scenario's
    environment exists); it is read once when a traced generator is
    created and once when it ends, which gives every generator boundary
    its simulated inclusive time next to its host time.
    """

    def __init__(self, sample_every: int = 0,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.sim_clock: Callable[[], float] = lambda: 0.0
        #: Open spans, innermost last:
        #: [boundary, child_s, start, raw index, aggregate row, parent span].
        self.stack: List[list] = []
        self.boundaries: Dict[Tuple[str, str], Boundary] = {}
        #: Raw spans are kept for every N-th client operation (0 = none).
        self.sample_every = int(sample_every)
        self.ops_started = 0
        #: Id of the sampled operation the running code belongs to.
        self.op: Optional[int] = None
        #: Sampled raw spans: [name, start, end, parent index, op id].
        self.raw: List[list] = []
        self._by_code: Dict[Any, Optional[Boundary]] = {}
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- the span stack ----------------------------------------------------------
    def enter(self, boundary: Boundary) -> None:
        start = self.clock()
        stack = self.stack
        raw_index = -1
        if stack:
            parent = stack[-1]
            row = boundary.row(parent[0].layer)
        else:
            parent = None
            row = boundary.row(None)
        if self.op is not None:
            raw_index = len(self.raw)
            self.raw.append([f"{boundary.layer}:{boundary.name}", start, None,
                             parent[3] if parent is not None else -1, self.op])
        stack.append([boundary, 0.0, start, raw_index, row, parent])

    def exit(self, raised: bool = False) -> None:
        _boundary, child_s, start, raw_index, row, parent = self.stack.pop()
        row[_SPANS] += 1
        if raised:
            row[_RAISED] += 1
        end = self.clock()
        inclusive = end - start
        row[_INCLUSIVE] += inclusive
        row[_SELF] += inclusive - child_s
        if parent is not None:
            parent[1] += inclusive
        if raw_index >= 0:
            self.raw[raw_index][2] = end

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        if self.stack:
            raise RuntimeError("reset() inside an open span")
        for boundary in self.boundaries.values():
            boundary.rows.clear()
        self.raw.clear()
        self.ops_started = 0
        self.op = None

    # -- boundaries --------------------------------------------------------------
    def boundary(self, layer: str, name: str, op_root: bool = False,
                 is_generator: bool = False) -> Boundary:
        key = (layer, name)
        found = self.boundaries.get(key)
        if found is None:
            found = self.boundaries[key] = Boundary(layer, name, op_root,
                                                    is_generator)
        return found

    def _origin(self, kind: str, code, module: Optional[str]) -> Optional[Boundary]:
        """Boundary of a process or callback, from the code that defines it."""
        if code in self._by_code:
            return self._by_code[code]
        found = None
        layer = layer_of(module, code.co_qualname)
        if layer is not None:
            found = self.boundary(layer, f"{kind}:{code.co_qualname}",
                                  is_generator=(kind == "process"))
        self._by_code[code] = found
        return found

    # -- wrappers ----------------------------------------------------------------
    def wrap(self, fn: Callable, boundary: Boundary,
             variant: Optional[Callable[[tuple, dict], str]] = None) -> Callable:
        """The traced replacement of *fn* (plain or generator function)."""
        enter, exit_ = self.enter, self.exit
        if variant is not None:
            variants: Dict[str, Boundary] = {}

            def pick(args, kwargs):
                kind = variant(args, kwargs)
                found = variants.get(kind)
                if found is None:
                    found = variants[kind] = self.boundary(
                        boundary.layer, f"{boundary.name}[{kind}]",
                        boundary.op_root, boundary.is_generator)
                return found
        else:
            pick = None

        if inspect.isgeneratorfunction(fn):
            boundary.is_generator = True

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                chosen = boundary if pick is None else pick(args, kwargs)
                return self.start(fn(*args, **kwargs), chosen)

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(boundary if pick is None else pick(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                exit_(True)
                raise
            exit_()
            return result

        return traced

    def start(self, generator, boundary: Boundary):
        """Count one call of a generator boundary and return the driver
        that opens a span around each of the generator's resumes."""
        stack = self.stack
        row = boundary.row(stack[-1][0].layer if stack else None)
        row[_CALLS] += 1
        if boundary.op_root and self.sample_every:
            self.ops_started += 1
            op = (self.ops_started
                  if self.ops_started % self.sample_every == 0 else None)
        else:
            op = self.op
        return _drive(self, generator, boundary, op, row, self.sim_clock())

    def callback(self, fn: Callable) -> Callable:
        """Attribute a scheduled bare callback to its defining layer."""
        target = getattr(fn, "__func__", fn)
        code = getattr(target, "__code__", None)
        if code is None:
            return fn
        boundary = self._origin("callback", code, getattr(target, "__module__", None))
        if boundary is None:
            return fn
        op = self.op
        enter, exit_ = self.enter, self.exit

        def traced_callback(event):
            outer = self.op
            self.op = op
            enter(boundary)
            try:
                fn(event)
            except BaseException:
                exit_(True)
                raise
            else:
                exit_()
            finally:
                self.op = outer

        return traced_callback

    def process(self, generator):
        """Attribute a new process's resumes to its defining layer.

        A generator that already comes from a traced boundary (for
        example ``env.process(client.append(...))``) is left as it is.
        """
        code = getattr(generator, "gi_code", None)
        if code is None or code is _DRIVE_CODE:
            return generator
        frame = generator.gi_frame
        module = frame.f_globals.get("__name__") if frame is not None else None
        boundary = self._origin("process", code, module)
        if boundary is None:
            return generator
        return self.start(generator, boundary)

    # -- installation ------------------------------------------------------------
    def install(self, table=BOUNDARIES) -> "Tracer":
        """Replace every entry point *table* names with its traced form."""
        importlib.import_module("repro")
        importlib.import_module("repro.decision")
        for layer, target, names, options in table:
            module_name, _, class_name = target.partition(":")
            module = importlib.import_module(module_name)
            if not class_name:
                for name in names:
                    self._install_function(layer, module, name)
                continue
            base = getattr(module, class_name)
            if names != "*":
                missing = [n for n in names if n not in vars(base)]
                if missing:
                    raise AttributeError(f"{target} no longer defines {missing}")
            owners = _with_subclasses(base) if options.get("subclasses") else [base]
            for owner in owners:
                chosen = _public_functions(owner) if names == "*" else [
                    n for n in names if isinstance(vars(owner).get(n),
                                                   types.FunctionType)]
                for name in chosen:
                    boundary = self.boundary(
                        layer, f"{owner.__name__}.{name}",
                        op_root=bool(options.get("op_root")))
                    variant = options.get("variants", {}).get(name)
                    self._replace(owner, name,
                                  self.wrap(owner.__dict__[name], boundary, variant))
        self._install_kernel_hooks()
        return self

    def _install_function(self, layer: str, module, name: str) -> None:
        original = getattr(module, name)
        traced = self.wrap(original, self.boundary(layer, name))
        # ``from .rpc import with_retries`` binds the function object in
        # the importing module: replace it wherever it was bound.
        for other in list(sys.modules.values()):
            if other is None or not getattr(other, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._replace(other, attr, traced)

    def _install_kernel_hooks(self) -> None:
        from repro.simulation.engine import Environment

        original_process = Environment.process
        original_call_at = Environment.call_at
        original_call_later = Environment.call_later
        tracer = self

        @functools.wraps(original_process)
        def process(env, generator, name=None):
            if name is None:
                name = getattr(generator, "__name__", None)
            return original_process(env, tracer.process(generator), name=name)

        @functools.wraps(original_call_at)
        def call_at(env, when, fn):
            return original_call_at(env, when, tracer.callback(fn))

        @functools.wraps(original_call_later)
        def call_later(env, delay, fn):
            return original_call_later(env, delay, tracer.callback(fn))

        self._replace(Environment, "process", process)
        self._replace(Environment, "call_at", call_at)
        self._replace(Environment, "call_later", call_later)

    def _replace(self, owner, name: str, value) -> None:
        self._installed.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    # -- reporting ---------------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """Aggregates: per-layer self seconds and one row per
        (layer, boundary, parent layer)."""
        rows = []
        layers: Dict[str, Dict[str, float]] = {}
        for boundary in self.boundaries.values():
            for parent, row in boundary.rows.items():
                calls = row[_CALLS] if boundary.is_generator else row[_SPANS]
                rows.append({
                    "layer": boundary.layer,
                    "boundary": boundary.name,
                    "parent": parent,
                    "calls": calls,
                    "spans": row[_SPANS],
                    "inclusive_s": row[_INCLUSIVE],
                    "self_s": row[_SELF],
                    "sim_s": row[_SIM],
                    "raised": row[_RAISED],
                })
                entry = layers.setdefault(boundary.layer,
                                          {"self_s": 0.0, "spans": 0})
                entry["self_s"] += row[_SELF]
                entry["spans"] += row[_SPANS]
        rows.sort(key=lambda r: (r["layer"], r["boundary"], str(r["parent"])))
        return {"layers": layers, "boundaries": rows}

    def raw_spans(self) -> List[Dict[str, Any]]:
        return [
            {"id": i, "name": name, "start": start, "end": end,
             "parent": parent, "op": op}
            for i, (name, start, end, parent, op) in enumerate(self.raw)
        ]


def _drive(tracer: Tracer, generator, boundary: Boundary, op, row, sim_start):
    """Run *generator*, with a span around every resume.

    This is itself a generator, so it can stand wherever the original
    could: under ``yield from`` or as the body of a ``Process``.
    """
    enter, exit_ = tracer.enter, tracer.exit
    send, throw = generator.send, generator.throw
    value = None
    error: Optional[BaseException] = None
    while True:
        outer_op = tracer.op
        tracer.op = op
        enter(boundary)
        try:
            item = send(value) if error is None else throw(error)
        except StopIteration as stop:
            exit_()
            row[_SIM] += tracer.sim_clock() - sim_start
            return stop.value
        except BaseException:
            exit_(True)
            row[_SIM] += tracer.sim_clock() - sim_start
            raise
        else:
            exit_()
        finally:
            tracer.op = outer_op
        try:
            value = yield item
            error = None
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as exc:  # delivered to the wrapped generator
            value = None
            error = exc


_DRIVE_CODE = _drive.__code__


def layer_of(module: Optional[str], qualname: str = "") -> Optional[str]:
    """Layer of code defined in *module* (None: not one of ours)."""
    if not module:
        return None
    owner = qualname.split(".", 1)[0]
    override = CLASS_LAYERS.get((module, owner))
    if override is not None:
        return override
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def _public_functions(owner: type) -> List[str]:
    return [name for name, value in vars(owner).items()
            if not name.startswith("_") and isinstance(value, types.FunctionType)]


def _with_subclasses(owner: type) -> List[type]:
    found, queue = [], [owner]
    while queue:
        cls = queue.pop()
        if cls not in found:
            found.append(cls)
            queue.extend(cls.__subclasses__())
    return found
