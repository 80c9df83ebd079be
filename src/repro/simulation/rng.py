"""Named, independently seeded random streams.

Simulation studies require *common random numbers*: when two configurations
are compared (say, static vs dynamic hashing), they must see the same request
sequence. We achieve this by deriving one :class:`random.Random` instance per
named stream from a master seed, so that e.g. the ``"requests"`` stream is
identical across runs regardless of how much randomness the ``"topology"``
stream consumed.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(master_seed: int, *names: object) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and any labels.

    Uses SHA-256 so that distinct labels yield statistically independent
    child seeds even for adjacent master seeds, and (unlike :func:`hash`,
    which is randomized per process) identically in every worker process.
    """
    payload = ":".join(map(str, (master_seed, *names))).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A factory of named :class:`random.Random` streams.

    >>> streams = RandomStreams(42)
    >>> streams.get("requests") is streams.get("requests")
    True
    >>> streams.get("requests") is streams.get("updates")
    False
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = stream
        return stream

    def reset(self) -> None:
        """Drop all derived streams; subsequent gets re-derive from scratch."""
        self._streams.clear()

    def __repr__(self) -> str:
        return (
            f"RandomStreams(master_seed={self.master_seed}, "
            f"streams={sorted(self._streams)})"
        )
