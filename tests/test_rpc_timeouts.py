"""Tests for RPC timeouts and retries (robustness layer plumbing)."""

import math

import pytest

from repro import telemetry
from repro.blobseer import BlobSeerConfig, BlobSeerDeployment, RpcTimeout
from repro.blobseer.errors import TicketRevoked
from repro.blobseer.rpc import (
    TIMED_OUT,
    request_response,
    wait_or_timeout,
    with_retries,
)
from repro.cluster import FaultInjector, Testbed, TestbedConfig
from repro.cluster.node import NodeDownError
from repro.robustness import RetryPolicy
from repro.simulation.events import Timeout
from repro.telemetry.metrics import MetricsRegistry


def make_testbed(seed=7, blackhole=True):
    testbed = Testbed(TestbedConfig(seed=seed))
    testbed.net.blackhole_missing = blackhole
    return testbed


def drive(env, gen):
    """Run generator *gen* as a process, capturing result or exception."""
    outcome = {}

    def runner():
        try:
            outcome["value"] = yield from gen
        except Exception as exc:  # noqa: BLE001 - test harness
            outcome["error"] = exc
        outcome["at"] = env.now

    env.process(runner())
    return outcome


# ------------------------------------------------------------------ primitives
def test_wait_or_timeout_value_wins():
    testbed = make_testbed()
    env = testbed.env

    def scenario():
        value = yield from wait_or_timeout(env, env.timeout(1.0, value=42), 5.0)
        return value

    outcome = drive(env, scenario())
    env.run(until=10.0)
    assert outcome["value"] == 42
    assert outcome["at"] == pytest.approx(1.0)


def test_wait_or_timeout_deadline_wins():
    testbed = make_testbed()
    env = testbed.env

    def scenario():
        value = yield from wait_or_timeout(env, env.timeout(60.0), 2.0)
        return value

    outcome = drive(env, scenario())
    env.run(until=10.0)
    assert outcome["value"] is TIMED_OUT
    assert outcome["at"] == pytest.approx(2.0)


def test_wait_or_timeout_nonpositive_is_immediate():
    testbed = make_testbed()
    env = testbed.env

    def scenario():
        value = yield from wait_or_timeout(env, env.timeout(1.0), 0.0)
        return value

    outcome = drive(env, scenario())
    env.run(until=1.0)
    assert outcome["value"] is TIMED_OUT


# ------------------------------------------------------------------ rpc paths
def test_rpc_without_deadline_costs_two_messages_and_no_timer(monkeypatch):
    """``timeout_s=None`` is the same round trip minus the timer: each
    leg yields its message event itself."""
    testbed = make_testbed()
    env = testbed.env
    a = testbed.add_node("a")
    b = testbed.add_node("b")
    created = []
    original = Timeout.__init__

    def counting(self, *args, **kwargs):
        created.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Timeout, "__init__", counting)
    outcome = drive(env, request_response(testbed.net, a.netnode, b.netnode))
    env.run(until=5.0)
    assert "error" not in outcome
    # Two control messages (each is one Timeout of the link latency) ...
    assert len(created) == 2
    assert testbed.net.blackholed_transfers == 0
    # ... where the bounded form adds one deadline timer per leg.
    del created[:]
    outcome = drive(env, request_response(
        testbed.net, a.netnode, b.netnode, timeout_s=2.0))
    env.run(until=10.0)
    assert "error" not in outcome
    assert len(created) == 4


@pytest.mark.parametrize("late", [False, True])
def test_message_landing_exactly_on_the_deadline_is_delivered(late):
    """The ordering rule at the boundary, on the one path every RPC
    takes: a leg whose message arrives exactly at the deadline is
    delivered (it was sent before the timer was armed); one ulp later it
    times out."""
    testbed = make_testbed()
    env = testbed.env
    testbed.add_node("a")
    testbed.add_node("b")
    latency = testbed.net.latency_between(testbed.net.node("a"), testbed.net.node("b"))
    # Request lands at `latency`, reply at exactly twice that.
    timeout_s = 2 * latency
    assert latency + (timeout_s - latency) == timeout_s  # exact in binary
    if late:
        timeout_s = math.nextafter(timeout_s, 0.0)
    outcome = drive(env, request_response(
        testbed.net, "a", "b", op="edge", timeout_s=timeout_s))
    env.run(until=1.0)
    if late:
        assert isinstance(outcome["error"], RpcTimeout)
        assert outcome["at"] == timeout_s
    else:
        assert "error" not in outcome
        assert outcome["at"] == 2 * latency


def test_rpc_times_out_against_blackholed_node():
    testbed = make_testbed()
    env = testbed.env
    metrics = MetricsRegistry(env)
    env.metrics = metrics
    a = testbed.add_node("a")
    b = testbed.add_node("b")
    b.fail()  # removed from the network; blackhole mode swallows sends

    outcome = drive(env, request_response(
        testbed.net, "a", "b", op="probe", timeout_s=2.0,
    ))
    env.run(until=10.0)
    error = outcome["error"]
    assert isinstance(error, RpcTimeout)
    assert error.op == "probe"
    assert error.callee == "b"
    assert outcome["at"] == pytest.approx(2.0)  # gave up right at the deadline
    assert metrics.counter("rpc.timeouts").value == 1


def test_rpc_keyerror_without_blackhole_is_retryable():
    testbed = make_testbed(blackhole=False)
    env = testbed.env
    a = testbed.add_node("a")
    b = testbed.add_node("b")
    b.fail()

    retry = RetryPolicy(max_attempts=2, base_delay_s=0.1, jitter=0.0)
    outcome = drive(env, request_response(
        testbed.net, "a", "b", timeout_s=1.0, retry=retry,
    ))
    env.run(until=5.0)
    # Both attempts hit the missing node; the KeyError surfaces after
    # the policy is exhausted.
    assert isinstance(outcome["error"], KeyError)


def test_rpc_retry_succeeds_after_recovery():
    testbed = make_testbed()
    env = testbed.env
    metrics = MetricsRegistry(env)
    env.metrics = metrics
    a = testbed.add_node("a")
    b = testbed.add_node("b")
    b.fail()

    def resurrect():
        yield env.timeout(3.5)
        b.recover()

    env.process(resurrect())
    retry = RetryPolicy(max_attempts=5, base_delay_s=1.0,
                        jitter=0.0)
    outcome = drive(env, request_response(
        testbed.net, "a", "b", op="hello", timeout_s=2.0, retry=retry,
    ))
    env.run(until=30.0)
    # Attempts at t=0 (timeout 2), t=3 (timeout 5); b is back at 3.5...
    assert "error" not in outcome
    assert metrics.counter("rpc.timeouts").value >= 1
    assert metrics.counter("rpc.retries").value >= 1


def test_retry_deadline_caps_attempts():
    testbed = make_testbed()
    env = testbed.env
    a = testbed.add_node("a")
    b = testbed.add_node("b")
    b.fail()

    retry = RetryPolicy(max_attempts=100, base_delay_s=1.0,
                        jitter=0.0, deadline_s=5.0)
    outcome = drive(env, request_response(
        testbed.net, "a", "b", timeout_s=1.0, retry=retry,
    ))
    env.run(until=60.0)
    assert isinstance(outcome["error"], RpcTimeout)
    # Attempts stop once the overall deadline passes, far before 100 tries.
    assert outcome["at"] <= 8.0


def test_with_retries_passthrough_without_policy():
    testbed = make_testbed()
    env = testbed.env

    calls = []

    def attempt():
        calls.append(1)
        raise RpcTimeout("op", "x", 1.0)
        yield  # pragma: no cover - makes this a generator

    outcome = drive(env, with_retries(env, attempt, retry=None))
    env.run(until=1.0)
    assert isinstance(outcome["error"], RpcTimeout)
    assert len(calls) == 1


# ------------------------------------------------------------------ version manager
def make_deployment(**overrides):
    defaults = dict(
        data_providers=4,
        metadata_providers=2,
        chunk_size_mb=8.0,
        testbed=TestbedConfig(seed=11),
    )
    defaults.update(overrides)
    return BlobSeerDeployment(BlobSeerConfig(**defaults))


def test_ticket_timeout_releases_queue_slot():
    """A holds the blob lock; B times out queued; C must still get through."""
    dep = make_deployment()
    env = dep.env
    vm = dep.vmanager
    client = dep.new_client("setup")
    blob_holder = {}

    def setup():
        blob_holder["id"] = yield env.process(client.create_blob(8.0))

    process = env.process(setup())
    dep.run(until=process)
    blob_id = blob_holder["id"]

    node_a = dep.testbed.add_node("caller-a")
    node_b = dep.testbed.add_node("caller-b")
    node_c = dep.testbed.add_node("caller-c")

    a_out = drive(env, vm.remote_ticket(node_a, blob_id, 8.0, "A"))
    dep.run(until=env.now + 1.0)
    ticket_a = a_out["value"]
    assert ticket_a is not None

    # B queues behind A with a 2 s budget -> RpcTimeout, slot withdrawn.
    b_out = drive(env, vm.remote_ticket(node_b, blob_id, 8.0, "B", timeout_s=2.0))
    dep.run(until=env.now + 5.0)
    assert isinstance(b_out["error"], RpcTimeout)

    # A abandons its ticket -> the lock frees -> C acquires promptly.
    vm.abandon(ticket_a)
    c_out = drive(env, vm.remote_ticket(node_c, blob_id, 8.0, "C", timeout_s=5.0))
    dep.run(until=env.now + 5.0)
    ticket_c = c_out["value"]
    assert ticket_c is not None
    # B's timed-out request did not consume the lock: C's ticket follows
    # A's directly.
    assert ticket_c.version == ticket_a.version + 1
    vm.abandon(ticket_c)


def _blob_with_writers(dep, *names):
    """A fresh blob and one caller node per writer name."""
    vm = dep.vmanager
    blob_id = vm.create_blob(8.0)
    return vm, blob_id, [dep.testbed.add_node(f"caller-{n}") for n in names]


def test_free_ticket_lock_past_the_deadline_still_times_out():
    """The request leg lands before the deadline, the entry CPU ends
    after it: the free lock is held on the spot, but the deadline has
    passed, so the attempt raises ``RpcTimeout`` there and then, hands
    the lock back and burns no version — the next writer gets version 1."""
    dep = make_deployment()
    env = dep.env
    vm, blob_id, (late, prompt) = _blob_with_writers(dep, "late", "prompt")
    latency = dep.net.latency_between(late.netnode, vm.node.netnode)
    timeout_s = latency + vm.op_cpu_s / 2
    start = env.now
    out = drive(env, vm.remote_ticket(late, blob_id, 8.0, "L", timeout_s=timeout_s))
    dep.run(until=env.now + 1.0)
    assert isinstance(out["error"], RpcTimeout)
    assert out["at"] == pytest.approx(start + latency + vm.op_cpu_s)
    lock = vm._locks[blob_id]
    assert lock.count == 0 and not lock.queue and not vm._held
    assert vm.tickets_issued == 0 and not vm.blobs[blob_id].versions

    ok = drive(env, vm.remote_ticket(prompt, blob_id, 8.0, "P", timeout_s=1.0))
    dep.run(until=env.now + 1.0)
    assert ok["value"].version == 1
    vm.abandon(ok["value"])


def test_queued_writer_whose_node_dies_does_not_wedge_the_blob():
    """Regression (no deadline anywhere): A holds the lock, B queues, B's
    node dies, A publishes.  B's ticket is issued into the void — its
    reply leg fails — and must be abandoned, or version 2 keeps the lock
    forever and C never gets a ticket."""
    dep = make_deployment()
    env = dep.env
    vm, blob_id, (node_a, node_b, node_c) = _blob_with_writers(dep, "a", "b", "c")

    a_out = drive(env, vm.remote_ticket(node_a, blob_id, 8.0, "A"))
    dep.run(until=env.now + 1.0)
    b_out = drive(env, vm.remote_ticket(node_b, blob_id, 8.0, "B"))
    dep.run(until=env.now + 1.0)
    assert "value" not in b_out  # queued behind A
    node_b.fail()
    drive(env, vm.remote_complete(node_a, a_out["value"]))
    dep.run(until=env.now + 1.0)
    # B saw the transport error; its version is burned, not held.
    assert isinstance(b_out["error"], KeyError)
    assert vm.blobs[blob_id].versions[2].abandoned
    assert not vm._held

    c_out = drive(env, vm.remote_ticket(node_c, blob_id, 8.0, "C"))
    dep.run(until=env.now + 60.0)
    ticket_c = c_out["value"]
    assert ticket_c.version == 3
    assert ticket_c.prev_version == 1  # chains past the burned version
    vm.abandon(ticket_c)


def test_lost_reply_publish_is_acked_by_the_retry():
    """The reply of the first ``remote_complete`` is lost; the retry
    finds the version already out and just acks: one publish, lock free."""
    dep = make_deployment()
    env = dep.env
    env.metrics = MetricsRegistry(env)
    vm, blob_id, (node,) = _blob_with_writers(dep, "w")
    t_out = drive(env, vm.remote_ticket(node, blob_id, 8.0, "W"))
    dep.run(until=env.now + 1.0)
    ticket = t_out["value"]

    # Cut the writer off just after its request has left: the request
    # is delivered, the VM publishes, the reply is lost.
    injector = FaultInjector(dep.testbed)
    retry = RetryPolicy(max_attempts=2, base_delay_s=1.0, jitter=0.0)
    c_out = drive(env, vm.remote_complete(node, ticket, timeout_s=2.0, retry=retry))
    latency = dep.net.latency_between(node.netnode, vm.node.netnode)
    dep.run(until=env.now + latency / 2)
    injector.partition([node.name], heal_after=2.5)
    dep.run(until=env.now + 30.0)

    assert c_out["value"] == ticket.version
    assert env.metrics.counter("rpc.timeouts").value == 1
    assert env.metrics.counter("rpc.retries").value == 1
    assert vm.versions_published == 1
    assert vm.latest(blob_id)[0] == ticket.version
    assert not vm._held and vm._locks[blob_id].count == 0


def test_late_complete_of_an_abandoned_ticket_is_revoked():
    """A complete arriving after its ticket was burned raises
    ``TicketRevoked`` and never resurrects the version."""
    dep = make_deployment()
    env = dep.env
    vm, blob_id, (node,) = _blob_with_writers(dep, "w")
    t_out = drive(env, vm.remote_ticket(node, blob_id, 8.0, "W"))
    dep.run(until=env.now + 1.0)
    ticket = t_out["value"]
    vm.abandon(ticket)

    for kwargs in ({}, {"timeout_s": 2.0}):
        late = drive(env, vm.remote_complete(node, ticket, **kwargs))
        dep.run(until=env.now + 5.0)
        assert isinstance(late["error"], TicketRevoked)
    record = vm.blobs[blob_id].versions[ticket.version]
    assert record.abandoned and not record.published
    assert vm.versions_published == 0 and vm.latest(blob_id)[0] == 0
    # The blob stays writable, chaining past the burned version.
    n_out = drive(env, vm.remote_ticket(node, blob_id, 8.0, "W"))
    dep.run(until=env.now + 1.0)
    assert n_out["value"].version == ticket.version + 1
    assert n_out["value"].prev_version is None
    vm.abandon(n_out["value"])


def test_get_latest_with_timeout_matches_legacy_result():
    dep = make_deployment()
    env = dep.env
    client = dep.new_client("w")
    blob_holder = {}

    def setup():
        blob_id = yield env.process(client.create_blob(8.0))
        yield env.process(client.append(blob_id, 16.0))
        blob_holder["id"] = blob_id

    process = env.process(setup())
    dep.run(until=process)

    caller = dep.testbed.add_node("reader")
    legacy = drive(env, dep.vmanager.remote_get_latest(caller, blob_holder["id"]))
    robust = drive(env, dep.vmanager.remote_get_latest(
        caller, blob_holder["id"], timeout_s=10.0,
    ))
    dep.run(until=env.now + 5.0)
    assert legacy["value"] == robust["value"]
    assert legacy["value"][1] == 16.0  # size reflects the append


# ------------------------------------------------------------------ span hygiene
def test_timed_out_rpc_closes_single_error_span():
    """A timed-out RPC leaves exactly one span, closed with the error."""
    testbed = make_testbed()
    env = testbed.env
    tele = telemetry.enable(testbed, profile=False)
    a = testbed.add_node("a")
    b = testbed.add_node("b")
    b.fail()

    outcome = drive(env, request_response(
        testbed.net, "a", "b", op="probe", timeout_s=2.0,
    ))
    env.run(until=10.0)
    assert isinstance(outcome["error"], RpcTimeout)

    probes = tele.tracer.spans_named("probe")
    assert len(probes) == 1
    span = probes[0]
    assert span.finished
    assert "RpcTimeout" in span.attrs["error"]
    assert span.duration_s == pytest.approx(2.0)
    assert tele.tracer.open_spans() == []


def test_retried_rpc_does_not_duplicate_spans():
    """One op span covers all retry attempts — retries must not fork spans."""
    testbed = make_testbed()
    env = testbed.env
    tele = telemetry.enable(testbed, profile=False)
    a = testbed.add_node("a")
    b = testbed.add_node("b")
    b.fail()

    def resurrect():
        yield env.timeout(3.5)
        b.recover()

    env.process(resurrect())
    retry = RetryPolicy(max_attempts=5, base_delay_s=1.0,
                        jitter=0.0)
    outcome = drive(env, request_response(
        testbed.net, "a", "b", op="hello", timeout_s=2.0, retry=retry,
    ))
    env.run(until=30.0)
    assert "error" not in outcome

    hellos = tele.tracer.spans_named("hello")
    assert len(hellos) == 1  # two attempts, one logical span
    span = hellos[0]
    assert span.finished
    assert "error" not in span.attrs  # the op eventually succeeded
    # The span brackets both attempts: start at t=0, end after recovery.
    assert span.start == pytest.approx(0.0)
    assert span.end > 3.5
    assert tele.tracer.open_spans() == []


def test_exhausted_retries_close_span_with_error():
    testbed = make_testbed()
    env = testbed.env
    tele = telemetry.enable(testbed, profile=False)
    a = testbed.add_node("a")
    b = testbed.add_node("b")
    b.fail()

    retry = RetryPolicy(max_attempts=3, base_delay_s=1.0,
                        jitter=0.0)
    outcome = drive(env, request_response(
        testbed.net, "a", "b", op="doomed", timeout_s=1.0, retry=retry,
    ))
    env.run(until=60.0)
    assert isinstance(outcome["error"], RpcTimeout)

    spans = tele.tracer.spans_named("doomed")
    assert len(spans) == 1
    assert "RpcTimeout" in spans[0].attrs["error"]
    assert tele.tracer.open_spans() == []


def test_ticket_timeout_closes_vm_span_with_error():
    """B's queued-then-timed-out ticket span must close with the error."""
    dep = make_deployment()
    env = dep.env
    tele = telemetry.enable(dep, profile=False)
    vm = dep.vmanager
    client = dep.new_client("setup")
    blob_holder = {}

    def setup():
        blob_holder["id"] = yield env.process(client.create_blob(8.0))

    process = env.process(setup())
    dep.run(until=process)
    blob_id = blob_holder["id"]

    node_a = dep.testbed.add_node("caller-a")
    node_b = dep.testbed.add_node("caller-b")

    a_out = drive(env, vm.remote_ticket(node_a, blob_id, 8.0, "A"))
    dep.run(until=env.now + 1.0)
    assert a_out["value"] is not None

    b_out = drive(env, vm.remote_ticket(node_b, blob_id, 8.0, "B",
                                        timeout_s=2.0))
    dep.run(until=env.now + 5.0)
    assert isinstance(b_out["error"], RpcTimeout)

    tickets = tele.tracer.spans_named("vm.ticket")
    failed = [s for s in tickets if "error" in s.attrs]
    assert len(failed) == 1
    assert "RpcTimeout" in failed[0].attrs["error"]
    assert all(s.finished for s in tickets)
    assert tele.tracer.open_spans() == []
    vm.abandon(a_out["value"])


def test_client_rpc_timeout_surfaces_as_op_failure():
    """A client with tight timeouts fails cleanly when the VM vanishes."""
    dep = make_deployment()
    env = dep.env
    dep.net.blackhole_missing = True
    client = dep.new_client("c", rpc_timeout_s=2.0)
    blob_holder = {}

    def setup():
        blob_holder["id"] = yield env.process(client.create_blob(8.0))

    process = env.process(setup())
    dep.run(until=process)

    dep.actor_nodes["vm"].fail()
    outcome = drive(env, client.append(blob_holder["id"], 8.0))
    dep.run(until=env.now + 30.0)
    assert isinstance(outcome["error"], RpcTimeout)
    assert client.history[-1].ok is False


def test_retry_gives_up_instead_of_sleeping_past_deadline():
    """Backoff that would overshoot the deadline raises now, not later.

    Regression: with a long backoff and a near-exhausted deadline the
    old code slept the full backoff, woke past the deadline, burned one
    more doomed attempt and raised late.  The caller must get the error
    at the moment the budget is provably gone.
    """
    testbed = make_testbed()
    env = testbed.env
    policy = RetryPolicy(max_attempts=10, base_delay_s=5.0, jitter=0.0,
                         deadline_s=3.0)
    attempts = []

    def attempt():
        attempts.append(env.now)
        yield env.timeout(1.0)
        raise RpcTimeout("op", "callee", 1.0)

    outcome = drive(env, with_retries(env, attempt, retry=policy))
    env.run(until=30.0)
    assert isinstance(outcome["error"], RpcTimeout)
    # Failed at t=1.0; backoff (5s) would sleep past the 3s deadline,
    # so the error surfaces immediately — no sleep, no extra attempt.
    assert outcome["at"] == pytest.approx(1.0)
    assert attempts == [0.0]


# ------------------------------------------------------------------ metadata round trips
def metadata_fault_world(blackhole, fault):
    """One metadata provider, a blob with one published version, and a
    second append whose first tree-node put triggers ``fault(deployment,
    provider)`` 10 us into its request leg.  Returns the deployment,
    the client, the provider, the blob id, the append's outcome and the
    instant the put was sent."""
    dep = make_deployment(metadata_providers=1)
    env = dep.env
    dep.net.blackhole_missing = blackhole
    client = dep.new_client("c", rpc_timeout_s=2.0)
    provider = dep.metadata_providers[0]

    def setup():
        blob_id = yield from client.create_blob(8.0)
        yield from client.append(blob_id, 8.0)
        return blob_id

    blob_id = dep.run(until=env.process(setup()))
    real_put, sent = client.meta.put, []

    def put(key, value):
        if not sent:
            sent.append(env.now)
            env.call_later(1e-5, lambda _event: fault(dep, provider))
        return (yield from real_put(key, value))

    client.meta.put = put
    outcome = drive(env, client.append(blob_id, 8.0))
    dep.run(until=env.now + 30.0)
    return dep, client, provider, blob_id, outcome, sent[0]


def assert_blob_still_writable(dep, client, blob_id):
    """The failed append's ticket was abandoned, its version burned."""
    assert client.history[-1].ok is False
    assert not dep.vmanager._held
    again = drive(dep.env, client.append(blob_id, 8.0))
    dep.run(until=dep.env.now + 10.0)
    assert again["value"].ok and again["value"].version == 3


@pytest.mark.parametrize("blackhole", [True, False])
def test_put_to_a_provider_dead_on_arrival_is_not_applied(blackhole):
    """The provider dies while the put request is in flight: the request
    still lands (a control message is on the heap from send time), so
    the provider must judge its own liveness on arrival.  It used to
    apply the put, then hang the client forever (black hole) or crash it
    with a bare KeyError — and either way leave the ticket held."""
    puts_at_crash = []

    def crash(_dep, provider):
        puts_at_crash.append(provider.puts)
        provider.node.fail()

    dep, client, provider, blob_id, outcome, _sent_at = metadata_fault_world(
        blackhole, crash)
    assert isinstance(outcome.get("error"), NodeDownError)
    assert [provider.puts] == puts_at_crash
    provider.node.recover()
    assert_blob_still_writable(dep, client, blob_id)


def test_lost_metadata_reply_times_out_at_the_clients_deadline():
    """The put lands and is applied, the reply is lost in a partition:
    the client's ``rpc_timeout_s`` bounds the round trip (it used to
    bound every RPC but this one) and the ticket is abandoned."""
    cut = {}

    def partition(dep, provider):
        cut["injector"] = FaultInjector(dep.testbed)
        cut["id"] = cut["injector"].partition([provider.node])

    dep, client, provider, blob_id, outcome, sent_at = metadata_fault_world(
        True, partition)
    assert isinstance(outcome.get("error"), RpcTimeout)
    assert outcome["at"] == pytest.approx(sent_at + 2.0)
    cut["injector"].heal(cut["id"])
    assert_blob_still_writable(dep, client, blob_id)
