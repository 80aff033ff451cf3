"""Typed protocol errors for the federated transport and aggregation.

A distributed fit can fail in many distinct ways — a corrupted frame, a
collector answering the wrong round, a share vector of the wrong shape,
mask streams out of sync, a shard missing its deadline — and every one of
them must surface as a *typed* error naming the offending party, never as
a silently-wrong aggregate or a bare guard failure.  This module is the
shared vocabulary: the transport, the endpoint, the aggregator, and the
checkpoint layer all raise (and re-raise across the wire) subclasses of
:class:`FederatedProtocolError`.

Several subclasses also inherit :class:`ValueError` so that pre-existing
callers catching broad ``ValueError`` around aggregation keep working; the
typed class is the contract new code should match on.
"""

from __future__ import annotations

__all__ = [
    "CheckpointError",
    "CollectorCrashError",
    "CollectorTimeoutError",
    "FederatedProtocolError",
    "FrameCorruptError",
    "FrameVersionError",
    "InjectedCoordinatorCrash",
    "KeyExchangeError",
    "RoundMismatchError",
    "ShardDesyncError",
    "ShareShapeError",
    "error_type_name",
    "error_from_wire",
]


class FederatedProtocolError(RuntimeError):
    """Base of every federated protocol failure.

    ``shard_id`` and ``round_index`` are attached where known so callers
    (and operators reading logs) see *which* party failed in *which* round
    without parsing the message text.
    """

    def __init__(
        self,
        message: str,
        *,
        shard_id: int | None = None,
        round_index: int | None = None,
    ) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.round_index = round_index


class FrameCorruptError(FederatedProtocolError):
    """A wire frame failed its checksum, length, or envelope validation."""


class FrameVersionError(FederatedProtocolError):
    """The peer speaks another frame version.

    Unlike a corrupt frame this is not a transit fault: every retry would
    meet the same peer, so the client raises it at once and no
    corrupt-frame counter counts it.
    """


class RoundMismatchError(FederatedProtocolError, ValueError):
    """A party received a round id it cannot serve (skipped, stale, or
    replayed with different content)."""


class ShareShapeError(FederatedProtocolError, ValueError):
    """A share vector has the wrong length, dtype, or dimensionality."""


class ShardDesyncError(FederatedProtocolError, ValueError):
    """Mask streams failed to cancel: the aggregate is garbage, not data."""


class CollectorTimeoutError(FederatedProtocolError):
    """A collector missed its per-round deadline after all retries.

    The round is aborted cleanly; the error names the shard so the
    operator knows which party to investigate.
    """


class CollectorCrashError(FederatedProtocolError):
    """A collector's connection died and could not be re-established."""


class KeyExchangeError(FederatedProtocolError):
    """The pairwise key exchange failed or produced inconsistent keys."""


class CheckpointError(FederatedProtocolError):
    """A fit checkpoint is missing, corrupt, or incompatible with the
    requested resume parameters."""


class InjectedCoordinatorCrash(RuntimeError):
    """Raised by the fault injector to simulate ``kill -9`` of the
    coordinator mid-fit (deliberately *not* a protocol error: nothing on
    the wire went wrong, the process simply vanished)."""


#: Stable wire names for errors a collector reports back to the
#: coordinator inside an ``error`` frame.
_WIRE_ERRORS: dict[str, type[FederatedProtocolError]] = {
    "frame_corrupt": FrameCorruptError,
    "frame_version": FrameVersionError,
    "round_mismatch": RoundMismatchError,
    "share_shape": ShareShapeError,
    "shard_desync": ShardDesyncError,
    "collector_timeout": CollectorTimeoutError,
    "collector_crash": CollectorCrashError,
    "key_exchange": KeyExchangeError,
    "checkpoint": CheckpointError,
    "protocol": FederatedProtocolError,
}
_NAME_BY_TYPE = {cls: name for name, cls in _WIRE_ERRORS.items()}


def error_type_name(exc: BaseException) -> str:
    """The wire tag for ``exc`` (``"protocol"`` for unknown types)."""
    for cls in type(exc).__mro__:
        if cls in _NAME_BY_TYPE:
            return _NAME_BY_TYPE[cls]
    return "protocol"


def error_from_wire(
    tag: str,
    message: str,
    *,
    shard_id: int | None = None,
    round_index: int | None = None,
) -> FederatedProtocolError:
    """Rebuild a typed error from an ``error`` frame's tag + detail."""
    cls = _WIRE_ERRORS.get(tag, FederatedProtocolError)
    return cls(message, shard_id=shard_id, round_index=round_index)
