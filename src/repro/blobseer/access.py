"""Access-control hook: where the self-protection layer plugs in.

The security framework (``repro.security``) is generic and system-
independent (paper §III-C); BlobSeer only exposes this narrow interface.
Enforcement decisions (block / throttle) become visible to clients at
operation entry and as per-flow rate caps.
"""

from __future__ import annotations

from typing import Optional, Protocol

__all__ = ["AccessController", "AllowAll", "AccessTable"]


class AccessController(Protocol):
    """Client-admission interface consulted by :class:`BlobSeerClient`."""

    def authorize(self, client_id: str, operation: str) -> None:
        """Raise :class:`~repro.blobseer.errors.AccessDenied` to reject."""
        ...  # pragma: no cover - protocol

    def rate_cap(self, client_id: str) -> Optional[float]:
        """Per-flow MB/s cap for this client, or None for unlimited."""
        ...  # pragma: no cover - protocol


class AllowAll:
    """Default policy: everything goes (the 'no security' baseline)."""

    def authorize(self, client_id: str, operation: str) -> None:
        return None

    def rate_cap(self, client_id: str) -> Optional[float]:
        return None


class AccessTable:
    """A concrete controller driven by explicit block/throttle tables.

    The policy-enforcement component of the security framework mutates
    an instance of this class; BlobSeer reads it on every operation.
    """

    def __init__(self) -> None:
        self.blocked: dict[str, str] = {}  # client -> reason
        self.throttled: dict[str, float] = {}  # client -> MB/s cap

    def block(self, client_id: str, reason: str = "") -> None:
        self.blocked[client_id] = reason

    def throttle(self, client_id: str, cap_mbps: float) -> None:
        self.throttled[client_id] = cap_mbps

    def authorize(self, client_id: str, operation: str) -> None:
        from .errors import AccessDenied

        reason = self.blocked.get(client_id)
        if reason is not None:
            raise AccessDenied(client_id, operation, reason)

    def rate_cap(self, client_id: str) -> Optional[float]:
        return self.throttled.get(client_id)
