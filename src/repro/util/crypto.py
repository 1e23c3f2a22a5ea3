"""Real cryptographic primitives used by NoCDN accounting and attic grants.

These are not simulated: content hashes are real SHA-256 over the object
payload bytes, and usage-record signatures are real HMAC-SHA256. Where the
simulator models object *contents* abstractly (an object is a name plus a
size), we derive deterministic pseudo-payload bytes from the object name
and version so that hashing is still meaningful end to end.

The functions here memoize nothing. An object's digest is a pure
function of ``(name, version, size)``; it is computed once per object
instance by :attr:`repro.http.content.WebObject.sha256`, so the cache
lives and dies with the simulated world that holds the object.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass, field
from typing import Set


def sha256_hex(payload: bytes) -> str:
    """Hex SHA-256 digest of ``payload``."""
    return hashlib.sha256(payload).hexdigest()


def derive_payload(name: str, version: int, size: int) -> bytes:
    """Deterministic pseudo-content for a simulated object.

    The real system hashes real bytes; the simulator represents an object
    by (name, version, size) and expands that to a repeatable byte string
    so integrity checks exercise real hashing. A tampered object is
    modeled by expanding a *different* (name, version) pair.
    """
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    seed = f"{name}@{version}".encode("utf-8")
    block = hashlib.sha256(seed).digest()
    reps = size // len(block) + 1
    return (block * reps)[:size]


def content_hash(name: str, version: int, size: int) -> str:
    """SHA-256 of the deterministic pseudo-content for an object."""
    return sha256_hex(derive_payload(name, version, size))


def hmac_sign(key: bytes, message: bytes) -> str:
    """Hex HMAC-SHA256 signature of ``message`` under ``key``."""
    return hmac.new(key, message, hashlib.sha256).hexdigest()


def hmac_verify(key: bytes, message: bytes, signature: str) -> bool:
    """Constant-time verification of an :func:`hmac_sign` signature."""
    expected = hmac_sign(key, message)
    return hmac.compare_digest(expected, signature)


def random_key(nbytes: int = 32) -> bytes:
    """A fresh random secret key (uses the OS CSPRNG; keys need not be
    deterministic across runs because they never affect control flow)."""
    return secrets.token_bytes(nbytes)


def deterministic_key(label: str) -> bytes:
    """A key derived from a label, for reproducible tests."""
    return hashlib.sha256(f"key:{label}".encode("utf-8")).digest()


@dataclass
class NonceRegistry:
    """Tracks seen nonces to reject replayed usage records.

    The paper's NoCDN usage report "includes a nonce to prevent replay";
    the origin keeps a registry per accounting epoch and rejects
    duplicates.
    """

    _seen: Set[str] = field(default_factory=set)

    def register(self, nonce: str) -> bool:
        """Record ``nonce``; returns False (replay) if already seen."""
        if nonce in self._seen:
            return False
        self._seen.add(nonce)
        return True

    def __contains__(self, nonce: str) -> bool:
        return nonce in self._seen

    def __len__(self) -> int:
        return len(self._seen)

    def reset(self) -> None:
        """Start a new accounting epoch."""
        self._seen.clear()
