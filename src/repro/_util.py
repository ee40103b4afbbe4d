"""Small shared utilities."""

from __future__ import annotations

import hashlib


def _seed_of(digest: bytes) -> int:
    return (int.from_bytes(digest[:4], "big") & 0x7FFFFFFF) or 1


def stable_seed(*key) -> int:
    """Deterministic 31-bit seed from a structured key.

    Python's built-in ``hash`` is randomized per process for strings,
    which would make traces differ between runs; every stochastic
    component derives its RNG seed through this helper instead.
    """
    return _seed_of(hashlib.sha256(
        "/".join(str(part) for part in key).encode()
    ).digest())


def stable_seed_prefix(*head):
    """The hash state of ``stable_seed(*head, ...)`` after the key's head.

    ``prefixed_seed(stable_seed_prefix(*head), *tail)`` equals
    ``stable_seed(*head, *tail)`` for any non-empty ``tail``, without
    hashing and joining the head again on every call.
    """
    return hashlib.sha256(
        ("/".join(str(part) for part in head) + "/").encode())


def prefixed_seed(prefix, *tail) -> int:
    """``stable_seed`` of a key whose head ``prefix`` has hashed."""
    digest = prefix.copy()
    digest.update("/".join(str(part) for part in tail).encode())
    return _seed_of(digest.digest())
