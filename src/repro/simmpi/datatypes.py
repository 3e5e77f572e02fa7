"""Payload sizing and copy semantics for simulated messages.

MPI transfers raw buffers; to charge realistic wire time the simulator needs
the byte size of every payload, and to preserve MPI's value semantics numpy
buffers must be copied on send (a rank must never observe another rank
mutating a message it already received).
"""

from __future__ import annotations

import sys
from typing import Any

import numpy as np

#: Size charged for payloads whose size cannot be determined (headers, small
#: python objects).  8 bytes models a scalar plus envelope.
DEFAULT_OBJECT_BYTES = 8


def payload_nbytes(payload: Any) -> int:
    """Best-effort wire size of a payload in bytes."""
    # Exact-type fast paths first: scalars and plain ndarrays are the
    # overwhelming majority of simulated payloads (pivot tuples, shards).
    t = type(payload)
    if t is float or t is int or t is bool:
        return DEFAULT_OBJECT_BYTES
    if t is np.ndarray:
        return int(payload.nbytes)
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, np.generic):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, (int, float, bool, complex)):
        return DEFAULT_OBJECT_BYTES
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (tuple, list)):
        return sum(payload_nbytes(item) for item in payload) or DEFAULT_OBJECT_BYTES
    if isinstance(payload, dict):
        return sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items()
        ) or DEFAULT_OBJECT_BYTES
    # Fallback: the interpreter-level size is a usable proxy for odd objects.
    return int(sys.getsizeof(payload))


#: scalar types that :func:`copy_payload` passes through unchanged
IMMUTABLE_SCALARS = frozenset((float, int, bool, str, type(None)))


def passes_through_copy(item: Any) -> bool:
    """Whether :func:`copy_payload` hands ``item`` itself back: an
    immutable scalar, or a tuple of them."""
    t = type(item)
    if t is tuple:
        return all(type(x) in IMMUTABLE_SCALARS for x in item)
    return t in IMMUTABLE_SCALARS


def copy_payload(payload: Any) -> Any:
    """Copy-on-send, mirroring MPI buffer semantics for mutable buffers.

    Numpy arrays are copied; immutable scalars/strings pass through; python
    containers are shallow-copied with their ndarray leaves copied.  Tuples
    whose items are all immutable scalars are shared, not rebuilt (tuples
    are immutable, so sharing is indistinguishable from copying).
    """
    t = type(payload)
    if t is np.ndarray:
        return payload.copy()
    if t is float or t is int or t is str or t is bool or payload is None:
        return payload
    if t is tuple:
        for item in payload:
            ti = type(item)
            if not (ti is float or ti is int or ti is str or ti is bool
                    or item is None):
                return tuple(copy_payload(item) for item in payload)
        return payload
    if t is list:
        return [copy_payload(item) for item in payload]
    if t is dict:
        return {k: copy_payload(v) for k, v in payload.items()}
    if isinstance(payload, np.ndarray):
        return payload.copy()
    if isinstance(payload, list):
        return [copy_payload(item) for item in payload]
    if isinstance(payload, tuple):
        return tuple(copy_payload(item) for item in payload)
    if isinstance(payload, dict):
        return {k: copy_payload(v) for k, v in payload.items()}
    return payload
