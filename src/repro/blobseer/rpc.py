"""Tiny RPC helper: request/response message pairs over the flow network.

Control messages are modelled as small transfers so that metadata and
management traffic consumes (a little) bandwidth and experiences latency,
as it does on a real deployment.

Timeouts and retries
--------------------
Every control-plane round trip — :func:`request_response`, the version
and provider managers' ``remote_*`` handlers, a metadata store's get and
put, the replication probes — is one :class:`RoundTrip` per attempt
(under :func:`with_retries` where the caller has a retry policy): a
request leg, the callee's work, a reply leg, each leg sent through
:meth:`RoundTrip.wait` under what is left of the attempt's deadline.

``timeout_s=None`` means *no timer*, not another code path: a leg then
yields its transfer event itself (no ``Timeout``, no ``any_of``), so a
run without deadlines schedules exactly the events its messages need.
With ``timeout_s`` set, the whole attempt (both legs and whatever the
callee waits on in between) shares one deadline and raises
:class:`~repro.blobseer.errors.RpcTimeout` on expiry; a message that
lands exactly on the deadline is delivered (it was sent, and so
sequenced, before the timer that would expire it).  A ``RetryPolicy``
(see :mod:`repro.robustness.retry`) re-attempts retryable failures under
its backoff, attempt cap and overall deadline.

How a caller learns the callee is gone is decided in one place,
:meth:`RoundTrip.request`.  A server judges its own liveness when the
request *arrives*, like a real one would; a crashed callee is otherwise
only observable through the request being lost (``KeyError`` /
:class:`TransferAborted`) or black-holed until the deadline.  A caller
with no deadline would wait on a black-holed send forever, so for it —
and only there — the pre-send ``NodeDownError`` oracle stands in for the
timeout it does not have.  What a handler undoes when a leg is lost
(withdraw from a lock queue, abandon a ticket) sits next to that leg in
the handler's single body.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..cluster.node import NodeDownError, PhysicalNode
from ..simulation.events import Event
from ..simulation.network import FlowNetwork, NetNode, TransferAborted
from .errors import BlobSeerError, RpcTimeout

__all__ = [
    "request_response",
    "wait_or_timeout",
    "with_retries",
    "attempts",
    "make_timeout_error",
    "RoundTrip",
    "GroupCommitGate",
    "CONTROL_MSG_MB",
    "TIMED_OUT",
    "TRANSPORT_ERRORS",
    "RETRYABLE_RPC_ERRORS",
    "OP_ERRORS",
]

#: Default size of a control message payload.  Control traffic is modelled
#: as latency-only (zero payload): at a few KB per message it is >4 orders
#: of magnitude below chunk traffic, and keeping it out of the bandwidth
#: allocator removes the dominant simulation cost under request floods.
CONTROL_MSG_MB = 0.0


class _TimedOut:
    """Sentinel returned by :func:`wait_or_timeout` on deadline expiry."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<TIMED_OUT>"


TIMED_OUT = _TimedOut()

#: Transport-level failures a message may die of: a crashed callee
#: ("connection refused"), a severed in-flight transfer, and a transfer
#: to a node no longer in the network (KeyError, non-black-hole mode).
TRANSPORT_ERRORS = (NodeDownError, TransferAborted, KeyError)

#: Failures a RetryPolicy re-attempts: deadline expiry or a lost message.
RETRYABLE_RPC_ERRORS = (RpcTimeout,) + TRANSPORT_ERRORS

#: What a client operation records and re-raises, and so what every
#: loop that keeps going after a failed operation catches.
OP_ERRORS = (BlobSeerError,) + TRANSPORT_ERRORS


def _name(node: NetNode | str) -> str:
    return node if isinstance(node, str) else node.name


def wait_or_timeout(env, event, timeout_s: Optional[float]):
    """Generator: wait on *event*, bounded by *timeout_s*.

    Returns the event's value, or :data:`TIMED_OUT` if the deadline
    expires first.  ``timeout_s=None`` waits unboundedly; a non-positive
    timeout returns :data:`TIMED_OUT` immediately.  If *event* fails
    before the deadline, its exception propagates; a failure after the
    deadline is defused by the race condition and ignored.
    """
    if timeout_s is None:
        value = yield event
        return value
    if timeout_s <= 0:
        return TIMED_OUT
    timer = env.timeout(timeout_s, value=TIMED_OUT)
    outcome = yield env.any_of([event, timer])
    if event in outcome:
        return event.value
    return TIMED_OUT


def make_timeout_error(env, op: str, callee: str, timeout_s: float) -> RpcTimeout:
    """Build an :class:`RpcTimeout`, bumping the ``rpc.timeouts`` counter."""
    metrics = env.metrics
    if metrics is not None:
        metrics.counter("rpc.timeouts").inc()
    return RpcTimeout(op, callee, timeout_s)


def with_retries(env, attempt: Callable[[], object], retry=None):
    """Generator: run ``attempt()`` generators under an optional policy.

    *attempt* is a zero-argument factory returning a fresh attempt
    generator each call.  Failures in :data:`RETRYABLE_RPC_ERRORS` are
    retried with the policy's backoff until its attempt cap or overall
    deadline is exhausted, then re-raised.  With ``retry=None`` the
    single attempt's outcome passes through untouched.
    """
    max_attempts = retry.max_attempts if retry is not None else 1
    deadline = None
    if retry is not None and retry.deadline_s is not None:
        deadline = env.now + retry.deadline_s
    failures = 0
    while True:
        try:
            result = yield from attempt()
            return result
        except RETRYABLE_RPC_ERRORS:
            failures += 1
            exhausted = failures >= max_attempts
            if deadline is not None and env.now >= deadline:
                exhausted = True
            if exhausted:
                raise
            backoff = retry.backoff_s(failures)
            if deadline is not None and env.now + backoff >= deadline:
                # Sleeping out the backoff would only wake us past the
                # overall deadline with no budget left for another
                # attempt — give up now instead of sleeping into it.
                raise
            metrics = env.metrics
            if metrics is not None:
                metrics.counter("rpc.retries").inc()
            yield env.timeout(backoff)


def attempts(env, attempt: Callable[[], object], retry=None):
    """What a round trip waits on (``yield from``): the one attempt's own
    generator when there is no retry policy — nothing would re-run it, so
    nothing stands between the caller and it — else :func:`with_retries`."""
    if retry is None:
        return attempt()
    return with_retries(env, attempt, retry)


class RoundTrip:
    """One attempt of a round trip: its deadline and its two legs.

    *caller* and *callee* are whatever :meth:`FlowNetwork.transfer`
    addresses (names or ``NetNode`` objects).  *host* is the callee's
    :class:`PhysicalNode` when the callee is a server whose liveness can
    be judged (see :meth:`request`); a bare message exchange has none.
    """

    __slots__ = ("net", "env", "caller", "callee", "op", "timeout_s",
                 "deadline", "host")

    def __init__(
        self,
        net: FlowNetwork,
        caller: NetNode | str,
        callee: NetNode | str,
        op: str,
        timeout_s: Optional[float],
        host: Optional[PhysicalNode] = None,
    ) -> None:
        self.net = net
        self.env = net.env
        self.caller = caller
        self.callee = callee
        self.op = op
        self.timeout_s = timeout_s
        self.deadline = None if timeout_s is None else net.env.now + timeout_s
        self.host = host

    def wait(self, event):
        """Generator: wait on *event* under what is left of the deadline
        (unboundedly when there is none); :class:`RpcTimeout` on expiry.
        A leg with a deadline goes through here, and so may anything the
        callee blocks on between the legs (the ticket's lock queue).  An
        event already processed — a lock granted when it was asked for —
        is not waited on: only a deadline that has already passed can
        still refuse it, exactly as a zero-length wait would."""
        deadline = self.deadline
        if event.processed:
            if deadline is None or self.env.now < deadline:
                return event.value
        elif deadline is None:
            return (yield event)
        else:
            value = yield from wait_or_timeout(
                self.env, event, deadline - self.env.now)
            if value is not TIMED_OUT:
                return value
        raise make_timeout_error(
            self.env, self.op, _name(self.callee), self.timeout_s)

    def request(self, size_mb: float = CONTROL_MSG_MB):
        """Generator: the request leg, then the callee's liveness check.

        This is the one place where "no deadline" changes the protocol:
        such a caller consults the instant-death oracle before sending,
        because a black-holed send would otherwise hang it forever."""
        host = self.host
        if host is not None and self.deadline is None and not host.alive:
            raise NodeDownError(host, self.op)
        transfer = self.net.transfer(self.caller, self.callee, size_mb)
        if self.deadline is None:
            yield transfer
        else:
            yield from self.wait(transfer)
        if host is not None and not host.alive:
            raise NodeDownError(host, self.op)

    def reply(self, size_mb: float = CONTROL_MSG_MB):
        """Generator: the reply leg."""
        transfer = self.net.transfer(self.callee, self.caller, size_mb)
        if self.deadline is None:
            yield transfer
        else:
            yield from self.wait(transfer)


def request_response(
    net: FlowNetwork,
    caller: NetNode | str,
    callee: NetNode | str,
    request_mb: float = CONTROL_MSG_MB,
    response_mb: float = CONTROL_MSG_MB,
    op: str = "rpc",
    timeout_s: Optional[float] = None,
    retry=None,
    ctx=None,
):
    """Generator: one round trip between two live nodes.

    When tracing is enabled the round trip becomes an ``rpc`` span on the
    caller's track, so request/response latency shows up in the trace.
    *ctx* carries an explicit parent span (the trace context): an RPC
    issued from a process other than the one that opened the operation
    span — a spawned worker, a background maintenance loop — passes the
    originating span here so the round trip still joins that causal
    trace.  Within the same process the context propagates implicitly
    via the tracer's span stack, and one span covers *all* retry
    attempts, so a retried RPC never duplicates spans in the trace.

    With ``timeout_s`` set, each attempt races a deadline and raises
    :class:`RpcTimeout` on expiry; with *retry* set, retryable failures
    are re-attempted under the policy.  With neither, the round trip is
    its two messages and nothing else.
    """
    def attempt():
        trip = RoundTrip(net, caller, callee, op, timeout_s)
        yield from trip.request(request_mb)
        yield from trip.reply(response_mb)

    tracer = net.env.tracer
    span = None
    if tracer.enabled:
        span = tracer.begin(
            op, track=_name(caller), cat="rpc", parent=ctx, callee=_name(callee),
            request_mb=request_mb, response_mb=response_mb, timeout_s=timeout_s,
        )
    try:
        yield from attempts(net.env, attempt, retry)
    except BaseException as exc:
        if span is not None:
            span.fail(exc)
        raise
    if span is not None:
        span.finish()


class GroupCommitGate:
    """Backlog-driven group commit for a server's per-request CPU charge.

    A serialization service that pays a fixed CPU cost per request (the
    version manager's ticket/publish entry work) saturates at
    ``cores / cost`` requests per second.  Real metadata services beat
    that with *group commit*: requests that arrive while a batch is being
    processed are accumulated and the whole backlog is committed in one
    vectorized pass whose cost is ``base + item * (n - 1)`` — the fixed
    entry overhead is paid once per batch, not once per request.

    This gate models exactly that, with no timers and no added latency
    when idle: the first ``submit()`` starts a drain process that
    processes one batch at a time; everything that queues while a batch
    computes joins the next one, so batch size adapts to the backlog.
    An uncontended gate degenerates to batches of one whose cost equals
    ``base_cpu_s`` — the unbatched per-request charge.
    """

    #: Most requests one vectorized pass commits; the rest of a longer
    #: backlog waits for the next pass.
    MAX_BATCH = 64

    def __init__(
        self,
        node,
        base_cpu_s: float,
        item_cpu_s: float,
    ) -> None:
        self.node = node
        self.env = node.env
        self.base_cpu_s = base_cpu_s
        self.item_cpu_s = item_cpu_s
        self._waiters: List[Event] = []
        self._draining = False
        self.batches = 0
        self.batched_ops = 0
        self.max_batch_seen = 0

    def submit(self):
        """Generator: join the current backlog; returns when committed."""
        done = Event(self.env)
        self._waiters.append(done)
        if not self._draining:
            self._draining = True
            self.env.process(self._drain(), name=f"gcommit-{self.node.name}")
        yield done

    def _drain(self):
        try:
            while self._waiters:
                batch = self._waiters[: self.MAX_BATCH]
                del self._waiters[: len(batch)]
                cpu = self.base_cpu_s + self.item_cpu_s * (len(batch) - 1)
                if cpu > 0:
                    try:
                        yield from self.node.compute(cpu)
                    except BaseException as exc:
                        # Node died mid-batch: fail every queued request so
                        # callers error out instead of waiting forever.
                        for event in batch + self._waiters:
                            event.fail(exc)
                        self._waiters.clear()
                        return
                self.batches += 1
                self.batched_ops += len(batch)
                if len(batch) > self.max_batch_seen:
                    self.max_batch_seen = len(batch)
                metrics = self.env.metrics
                if metrics is not None:
                    metrics.histogram("vm.batch_size").observe(len(batch))
                for event in batch:
                    event.succeed()
        finally:
            self._draining = False

    def mean_batch_size(self) -> float:
        return self.batched_ops / self.batches if self.batches else 0.0

    def stats(self) -> dict:
        return {
            "batches": self.batches,
            "batched_ops": self.batched_ops,
            "max_batch": self.max_batch_seen,
            "mean_batch": round(self.mean_batch_size(), 3),
        }
