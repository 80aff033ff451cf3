"""Crash-safe checkpointing for federated fits.

A PrivTree fit is a sequence of budget-spending rounds, so a coordinator
crash is not merely a liveness problem: naively re-running the fit after
a crash would draw fresh noise *and* debit the accountant again — a
double-spend, which is a privacy bug, not just a wasted release.  The
checkpoint makes round execution transactional instead:

* after every *committed* round the coordinator serializes its complete
  replay state — the pending frontier and every committed split decision
  (breadth-first node numbers), the exact position of the noise stream
  (the generator's bit-generator state), the accountant ledger, and the
  round log — via
  :func:`repro._io.atomic_write_text`, so the file on disk is always a
  complete, consistent snapshot (never a torn write);
* a restarted coordinator resumes from the snapshot: the budget is
  *restored*, never re-spent; the noise stream continues from the saved
  position; and the one possibly-uncommitted round is simply redone —
  collectors replay it idempotently from their round caches, so mask
  streams advance exactly once per round no matter how the crash fell.

The result is the acceptance contract of the transport: a fit killed at
any point and ``--resume``\\ d produces a release **bit-identical** to an
uninterrupted fit, with exactly one spend per ledger label and exactly
one committed entry per round in the round log.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .._io import atomic_write_text
from .errors import CheckpointError
from .transport import decode_node_ids

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "FitCheckpoint",
    "restore_rng",
    "rng_state",
]

CHECKPOINT_FORMAT = "repro.federated.checkpoint"
CHECKPOINT_VERSION = 2

_REQUIRED_KEYS = frozenset(
    {
        "phase",
        "next_round",
        "frontier",
        "split_rounds",
        "rng",
        "ledger",
        "config",
        "round_log",
    }
)


def rng_state(gen: np.random.Generator) -> dict:
    """The JSON-serializable position of ``gen``'s stream."""
    bit_gen = gen.bit_generator
    return {"name": type(bit_gen).__name__, "state": bit_gen.state}


def restore_rng(state: dict) -> np.random.Generator:
    """A generator resumed at exactly the saved stream position."""
    name = state.get("name")
    cls = getattr(np.random, str(name), None)
    if cls is None or not isinstance(cls, type) or not issubclass(
        cls, np.random.BitGenerator
    ):
        raise CheckpointError(f"unknown bit generator {name!r} in checkpoint")
    bit_gen = cls()
    try:
        bit_gen.state = state["state"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt rng state in checkpoint: {exc}") from None
    return np.random.Generator(bit_gen)


class FitCheckpoint:
    """One fit's checkpoint file (atomic save, validated load).

    The file is plain JSON with a versioned envelope; every ``save`` goes
    through the atomic temp-file-and-rename write, so a reader — in
    particular a resuming coordinator — always sees a complete snapshot
    of the last committed round, never a torn one.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    def save(self, state: dict) -> None:
        missing = _REQUIRED_KEYS - set(state)
        if missing:
            raise CheckpointError(
                f"checkpoint state is missing keys {sorted(missing)}"
            )
        document = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            **state,
        }
        atomic_write_text(self.path, json.dumps(document, separators=(",", ":")))

    def load(self) -> dict:
        try:
            with open(self.path, encoding="utf-8") as handle:
                document = json.load(handle)
        except FileNotFoundError:
            raise CheckpointError(
                f"no checkpoint at {self.path}; run without --resume first"
            ) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"cannot read checkpoint {self.path}: {exc}"
            ) from None
        kind = document.get("format") if isinstance(document, dict) else None
        if kind != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"{self.path} is not a federated fit checkpoint (format={kind!r})"
            )
        if document.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {document.get('version')!r} "
                f"(this coordinator reads version {CHECKPOINT_VERSION})"
            )
        missing = _REQUIRED_KEYS - set(document)
        if missing:
            raise CheckpointError(
                f"checkpoint {self.path} is missing keys {sorted(missing)}"
            )
        split_rounds = document["split_rounds"]
        if not isinstance(split_rounds, list):
            raise CheckpointError("checkpoint split log must be a list of rounds")
        for where, numbers in [("frontier", document["frontier"])] + [
            ("split log", round_numbers) for round_numbers in split_rounds
        ]:
            try:
                decode_node_ids(numbers)
            except ValueError as exc:
                raise CheckpointError(f"checkpoint {where} {exc}") from None
        return document

    def clear(self) -> None:
        """Remove the file (a completed fit's checkpoint is an audit
        record; callers decide whether to keep it)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
