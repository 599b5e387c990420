"""Tests for the security-policy description language and history."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.security import (
    Policy,
    PolicyError,
    Severity,
    UserActivityHistory,
    UserEvent,
    parse_condition,
)
from repro.security.policy import (
    Action,
    AndCondition,
    EvaluationContext,
    MetricCondition,
    NotCondition,
    OrCondition,
    dos_flood_policy,
    read_flood_policy,
)


def make_history(events):
    history = UserActivityHistory()
    for event in events:
        history.record(event)
    return history


def uev(t, client="c1", kind="op_start", op="write", mb=0.0, ok=True, blob=1):
    return UserEvent(time=t, client_id=client, kind=kind, op=op,
                     bytes_mb=mb, blob_id=blob, ok=ok)


# ------------------------------------------------------------------ parser
def test_parse_simple_comparison():
    node = parse_condition("count(op_start) > 5")
    assert isinstance(node, MetricCondition)
    assert node.metric == "count"
    assert node.kind == "op_start"
    assert node.threshold == 5.0


def test_parse_with_filters():
    node = parse_condition("rate(op_start, op='write') >= 1.5")
    assert node.op_filter == "write"
    assert node.op == ">="


def test_parse_ok_filter():
    node = parse_condition("count(op_end, ok=false) > 3")
    assert node.ok_filter is False


def test_parse_and_or_not_precedence():
    node = parse_condition(
        "count(op_start) > 1 and count(op_end) > 2 or not sum(chunk_write) < 5"
    )
    assert isinstance(node, OrCondition)
    assert isinstance(node.parts[0], AndCondition)
    assert isinstance(node.parts[1], NotCondition)


def test_parse_parentheses():
    node = parse_condition(
        "count(op_start) > 1 and (count(op_end) > 2 or count(op_end) < 1)"
    )
    assert isinstance(node, AndCondition)
    assert isinstance(node.parts[1], OrCondition)


def test_parse_star_kind():
    node = parse_condition("count(*) > 10")
    assert node.kind == "*"


def test_parse_errors():
    for bad in (
        "count(op_start) >",
        "count > 5",
        "unknownmetric(op_start) > 5",
        "count(op_start) % 5",
        "count(op_start, bogus=1) > 5",
        "count(op_start) > 5 extra",
        "count(op_start, op=write) > 5",  # unquoted string
    ):
        with pytest.raises(PolicyError):
            parse_condition(bad)


def test_describe_mentions_structure():
    text = "rate(op_start, op='write') > 2 and not count(op_end, ok=false) > 3"
    description = parse_condition(text).describe()
    assert "rate" in description
    assert "not" in description
    assert "op='write'" in description


# ------------------------------------------------------------------ metric evaluation
def test_count_and_rate_metrics():
    events = [uev(t) for t in range(10)]
    ctx = EvaluationContext("c1", events, window_s=10.0, now=10.0)
    assert parse_condition("count(op_start) == 10").evaluate(ctx)
    assert parse_condition("rate(op_start) >= 1").evaluate(ctx)
    assert not parse_condition("rate(op_start) > 1").evaluate(ctx)


def test_sum_mean_max_metrics():
    events = [uev(1, kind="chunk_write", mb=10.0), uev(2, kind="chunk_write", mb=30.0)]
    ctx = EvaluationContext("c1", events, window_s=10.0, now=10.0)
    assert parse_condition("sum(chunk_write) == 40").evaluate(ctx)
    assert parse_condition("mean(chunk_write) == 20").evaluate(ctx)
    assert parse_condition("max(chunk_write) == 30").evaluate(ctx)


def test_distinct_metric_counts_blobs():
    events = [uev(1, blob=1), uev(2, blob=2), uev(3, blob=2)]
    ctx = EvaluationContext("c1", events, window_s=10.0, now=10.0)
    assert parse_condition("distinct(op_start) == 2").evaluate(ctx)


def test_failures_metric():
    events = [uev(1, kind="op_end", ok=False), uev(2, kind="op_end", ok=True)]
    ctx = EvaluationContext("c1", events, window_s=10.0, now=10.0)
    assert parse_condition("failures(op_end) == 1").evaluate(ctx)


def test_op_filter_selects_subset():
    events = [uev(1, op="write"), uev(2, op="read"), uev(3, op="write")]
    ctx = EvaluationContext("c1", events, window_s=10.0, now=10.0)
    assert parse_condition("count(op_start, op='write') == 2").evaluate(ctx)


# ------------------------------------------------------------------ Policy objects
def test_policy_evaluate_over_window():
    history = make_history([uev(t) for t in range(20)])
    policy = Policy(
        name="flood",
        condition=parse_condition("rate(op_start) > 0.5"),
        window_s=10.0,
    )
    assert policy.evaluate(history, "c1", now=20.0)
    assert not policy.evaluate(history, "nobody", now=20.0)


def test_policy_min_events_guard():
    history = make_history([uev(19.9)])
    policy = Policy(
        name="flood",
        condition=parse_condition("count(op_start) > 0"),
        window_s=1.0,
        min_events=3,
    )
    assert not policy.evaluate(history, "c1", now=20.0)


def test_policy_accepts_string_condition():
    policy = Policy(name="p", condition="count(op_start) > 1", window_s=5.0)
    assert isinstance(policy.condition, MetricCondition)


def test_policy_bad_window_rejected():
    with pytest.raises(PolicyError):
        Policy(name="p", condition="count(op_start) > 1", window_s=0)


def test_canned_policies_construct_and_describe():
    for policy in (
        dos_flood_policy(),
        read_flood_policy(),
    ):
        assert policy.describe()
        assert policy.actions
        assert isinstance(policy.severity, Severity)


def test_dos_flood_policy_fires_on_append_flood():
    history = make_history([uev(t / 10.0, op="append") for t in range(100)])
    policy = dos_flood_policy(max_rate_per_s=2.0, window_s=10.0)
    assert policy.evaluate(history, "c1", now=10.0)


# ------------------------------------------------------------------ history container
def test_history_window_queries():
    history = make_history([uev(t) for t in range(10)])
    assert len(history.events("c1", since=5.0)) == 5
    assert len(history.events("c1", since=2.0, until=4.0)) == 3
    assert history.clients() == ["c1"]


def test_history_kind_filter():
    history = make_history([uev(1), uev(2, kind="op_end")])
    assert len(history.events("c1", kind="op_end")) == 1


def test_history_out_of_order_inserts_stay_sorted():
    history = UserActivityHistory()
    for t in (5.0, 1.0, 3.0, 2.0):
        history.record(uev(t))
    times = [e.time for e in history.events("c1")]
    assert times == sorted(times)


def test_history_prune_drops_old():
    history = UserActivityHistory(retention_s=10.0)
    for t in range(20):
        history.record(uev(float(t)))
    dropped = history.prune(now=20.0)
    assert dropped == 10
    assert len(history) == 10


@settings(max_examples=50, deadline=None)
@given(times=st.lists(st.floats(0, 1000, allow_nan=False), min_size=1, max_size=50))
def test_history_property_sorted_and_complete(times):
    history = UserActivityHistory()
    for t in times:
        history.record(uev(t))
    stored = [e.time for e in history.events("c1")]
    assert stored == sorted(times)
