"""Policy definition: an expressive security-policy description language.

"The Policy Definition component provides a generic and easily
extensible framework for defining various types of security policies,
which describe inappropriate or dangerous client behavior." (§III-C)
"... an expressive policy description language enabling system
administrators to define a large array of security attacks." (§VI)

A policy is a named rule:

    Policy(
        name="dos-write-flood",
        window_s=20.0,
        condition=parse_condition("rate(op_start, op='write') > 4"),
        severity=Severity.CRITICAL,
        actions=[Action.BLOCK],
    )

Conditions are boolean expressions over windowed aggregates of the user
activity history.  The textual form accepted by :func:`parse_condition`:

    expr     := or_expr
    or_expr  := and_expr ('or' and_expr)*
    and_expr := not_expr ('and' not_expr)*
    not_expr := 'not' not_expr | '(' expr ')' | comparison
    comparison := metric OP number
    metric   := NAME '(' kind [',' key=value]* ')'
    OP       := '>' '>=' '<' '<=' '==' '!='

Metric functions: ``count``, ``rate`` (events/s), ``sum`` (of bytes_mb),
``mean``, ``max``, ``distinct`` (distinct blobs touched), ``failures``.
Filters: ``kind`` positional (op_start/op_end/chunk_write/chunk_read or
``*``), plus ``op='write'`` / ``ok=false`` keyword filters.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from .history import UserActivityHistory, UserEvent

__all__ = [
    "Severity",
    "Action",
    "EvaluationContext",
    "ConditionNode",
    "MetricCondition",
    "AndCondition",
    "OrCondition",
    "NotCondition",
    "Policy",
    "PolicyError",
    "parse_condition",
    "dos_flood_policy",
    "read_flood_policy",
]


class PolicyError(Exception):
    """Bad policy definition or unparsable condition text."""


class Severity(enum.IntEnum):
    INFO = 0
    WARNING = 1
    SERIOUS = 2
    CRITICAL = 3


class Action(enum.Enum):
    LOG = "log"
    ALERT = "alert"
    THROTTLE = "throttle"
    BLOCK = "block"


@dataclass
class EvaluationContext:
    """Everything a condition may look at for one (client, window) pair."""

    client_id: str
    events: List[UserEvent]
    window_s: float
    now: float


# ---------------------------------------------------------------- condition AST
class ConditionNode:
    def evaluate(self, ctx: EvaluationContext) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def describe(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError


_METRICS: dict[str, Callable[[List[UserEvent], float], float]] = {
    "count": lambda events, window: float(len(events)),
    "rate": lambda events, window: len(events) / window if window > 0 else 0.0,
    "sum": lambda events, window: sum(e.bytes_mb for e in events),
    "mean": lambda events, window: (
        sum(e.bytes_mb for e in events) / len(events) if events else 0.0
    ),
    "max": lambda events, window: max((e.bytes_mb for e in events), default=0.0),
    "distinct": lambda events, window: float(
        len({e.blob_id for e in events if e.blob_id is not None})
    ),
    "failures": lambda events, window: float(sum(1 for e in events if not e.ok)),
}

_OPS: dict[str, Callable[[float, float], bool]] = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


@dataclass
class MetricCondition(ConditionNode):
    """``metric(kind, filters...) OP threshold``"""

    metric: str
    kind: str  # event kind filter, or "*"
    op: str
    threshold: float
    op_filter: Optional[str] = None  # client operation ("write", "read", ...)
    ok_filter: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.metric not in _METRICS:
            raise PolicyError(f"unknown metric {self.metric!r}")
        if self.op not in _OPS:
            raise PolicyError(f"unknown comparison {self.op!r}")

    def _select(self, events: Sequence[UserEvent]) -> List[UserEvent]:
        out = []
        for event in events:
            if self.kind != "*" and event.kind != self.kind:
                continue
            if self.op_filter is not None and event.op != self.op_filter:
                continue
            if self.ok_filter is not None and event.ok != self.ok_filter:
                continue
            out.append(event)
        return out

    def value(self, ctx: EvaluationContext) -> float:
        return _METRICS[self.metric](self._select(ctx.events), ctx.window_s)

    def evaluate(self, ctx: EvaluationContext) -> bool:
        return _OPS[self.op](self.value(ctx), self.threshold)

    def describe(self) -> str:
        filters = [self.kind]
        if self.op_filter is not None:
            filters.append(f"op={self.op_filter!r}")
        if self.ok_filter is not None:
            filters.append(f"ok={str(self.ok_filter).lower()}")
        return f"{self.metric}({', '.join(filters)}) {self.op} {self.threshold:g}"


@dataclass
class AndCondition(ConditionNode):
    parts: List[ConditionNode]

    def evaluate(self, ctx: EvaluationContext) -> bool:
        return all(p.evaluate(ctx) for p in self.parts)

    def describe(self) -> str:
        return "(" + " and ".join(p.describe() for p in self.parts) + ")"


@dataclass
class OrCondition(ConditionNode):
    parts: List[ConditionNode]

    def evaluate(self, ctx: EvaluationContext) -> bool:
        return any(p.evaluate(ctx) for p in self.parts)

    def describe(self) -> str:
        return "(" + " or ".join(p.describe() for p in self.parts) + ")"


@dataclass
class NotCondition(ConditionNode):
    inner: ConditionNode

    def evaluate(self, ctx: EvaluationContext) -> bool:
        return not self.inner.evaluate(ctx)

    def describe(self) -> str:
        return f"not {self.inner.describe()}"


# ---------------------------------------------------------------- parser
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<op>>=|<=|==|!=|>|<)|"
    r"(?P<comma>,)|(?P<eq>=)|(?P<number>-?\d+(?:\.\d+)?)|"
    r"(?P<string>'[^']*'|\"[^\"]*\")|(?P<name>[A-Za-z_][A-Za-z_0-9*]*)|(?P<star>\*))"
)


def _tokenize(text: str) -> List[tuple[str, str]]:
    tokens = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None or match.end() == position:
            if text[position:].strip() == "":
                break
            raise PolicyError(f"bad token at {text[position:]!r}")
        position = match.end()
        kind = match.lastgroup
        tokens.append((kind, match.group(kind)))
    return tokens


class _Parser:
    def __init__(self, tokens: List[tuple[str, str]]) -> None:
        self.tokens = tokens
        self.index = 0

    def peek(self) -> Optional[tuple[str, str]]:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise PolicyError("unexpected end of condition")
        self.index += 1
        return token

    def expect(self, kind: str) -> str:
        token_kind, value = self.next()
        if token_kind != kind:
            raise PolicyError(f"expected {kind}, got {value!r}")
        return value

    # expr := and_expr ('or' and_expr)*
    def parse_expr(self) -> ConditionNode:
        parts = [self.parse_and()]
        while self.peek() is not None and self.peek()[1] == "or":
            self.next()
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else OrCondition(parts)

    def parse_and(self) -> ConditionNode:
        parts = [self.parse_not()]
        while self.peek() is not None and self.peek()[1] == "and":
            self.next()
            parts.append(self.parse_not())
        return parts[0] if len(parts) == 1 else AndCondition(parts)

    def parse_not(self) -> ConditionNode:
        token = self.peek()
        if token is not None and token[1] == "not":
            self.next()
            return NotCondition(self.parse_not())
        if token is not None and token[0] == "lparen":
            self.next()
            inner = self.parse_expr()
            self.expect("rparen")
            return inner
        return self.parse_comparison()

    def parse_comparison(self) -> ConditionNode:
        metric = self.expect("name")
        self.expect("lparen")
        kind_token = self.next()
        if kind_token[0] not in ("name", "star"):
            raise PolicyError(f"expected event kind, got {kind_token[1]!r}")
        kind = kind_token[1]
        op_filter = None
        ok_filter = None
        while self.peek() is not None and self.peek()[0] == "comma":
            self.next()
            key = self.expect("name")
            self.expect("eq")
            value_kind, value = self.next()
            if key == "op":
                if value_kind != "string":
                    raise PolicyError("op filter must be a quoted string")
                op_filter = value[1:-1]
            elif key == "ok":
                if value not in ("true", "false"):
                    raise PolicyError("ok filter must be true or false")
                ok_filter = value == "true"
            else:
                raise PolicyError(f"unknown filter {key!r}")
        self.expect("rparen")
        comparison = self.expect("op")
        threshold = float(self.expect("number"))
        return MetricCondition(
            metric=metric,
            kind=kind,
            op=comparison,
            threshold=threshold,
            op_filter=op_filter,
            ok_filter=ok_filter,
        )


def parse_condition(text: str) -> ConditionNode:
    """Parse the textual policy language into a condition AST."""
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    if parser.peek() is not None:
        raise PolicyError(f"trailing tokens: {parser.tokens[parser.index:]!r}")
    return node


# ---------------------------------------------------------------- policy object
@dataclass
class Policy:
    """One security policy: condition + window + enforcement guidance."""

    name: str
    condition: ConditionNode
    window_s: float
    severity: Severity = Severity.SERIOUS
    actions: List[Action] = field(default_factory=lambda: [Action.BLOCK])
    #: Minimum events in the window before the policy can trigger —
    #: guards against one-sample false positives.
    min_events: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.condition, str):
            self.condition = parse_condition(self.condition)
        if self.window_s <= 0:
            raise PolicyError("window_s must be positive")

    def evaluate(self, history: UserActivityHistory, client_id: str, now: float) -> bool:
        events = history.events(client_id, since=now - self.window_s, until=now)
        if len(events) < self.min_events:
            return False
        ctx = EvaluationContext(
            client_id=client_id, events=events, window_s=self.window_s, now=now
        )
        return self.condition.evaluate(ctx)

    def describe(self) -> str:
        return (
            f"policy {self.name!r} [{self.severity.name}] over {self.window_s:g}s: "
            f"{self.condition.describe()} -> {[a.value for a in self.actions]}"
        )


# ---------------------------------------------------------------- canned policies
def dos_flood_policy(
    max_rate_per_s: float = 2.0,
    window_s: float = 15.0,
    name: str = "dos-write-flood",
) -> Policy:
    """The DoS pattern of §IV-C: abnormally high write-request rate.

    Counts both ``write`` and ``append`` requests (appends are writes).
    """
    return Policy(
        name=name,
        condition=parse_condition(
            f"rate(op_start, op='write') > {max_rate_per_s} "
            f"or rate(op_start, op='append') > {max_rate_per_s}"
        ),
        window_s=window_s,
        severity=Severity.CRITICAL,
        actions=[Action.BLOCK],
        min_events=3,
        description="write-request flood (denial of service)",
    )


def read_flood_policy(
    max_rate_per_s: float = 1.0,
    window_s: float = 30.0,
) -> Policy:
    """The read-intensive DoS pattern of §IV-C: a request flood of reads."""
    return Policy(
        name="dos-read-flood",
        condition=parse_condition(f"rate(op_start, op='read') > {max_rate_per_s}"),
        window_s=window_s,
        severity=Severity.CRITICAL,
        actions=[Action.BLOCK],
        min_events=3,
        description="read-request flood (denial of service)",
    )
