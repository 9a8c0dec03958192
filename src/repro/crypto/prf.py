"""Keyed pseudo-random functions and one-time-pad keystreams.

The paper's bucket encryption generates one-time pads with
``AES_K(seed || chunk_index)``.  Pure-Python AES is far too slow to sit on
the hot path of million-access simulations, so the default PRF here is
SHA-256 based (HMAC-like keyed hashing): chunk ``i`` of a keystream is
``SHA-256(key || seed || i)[:16]``.  ORAM behaviour depends only on the
existence of a keyed PRF, not on which one, so this substitution leaves
every protocol result unchanged.  The AES back-end keeps the per-chunk
:meth:`Prf.block` loop as the reference and is available to callers who
want bit-exact AES pads.

Where the cost goes: the ``sha256`` keystream encodes ``key || seed`` once
per call and then pays one C-level SHA-256 call per 16-byte chunk, and
:meth:`Keystream.apply` XORs the whole buffer as one big-integer
operation.  What remains per bucket is those hash calls themselves.  A
single XOF call per bucket (``shake_256``) would be cheaper still, but it
produces different pads and hence a new ciphertext format.
"""

from __future__ import annotations

import hashlib
from typing import Literal

from repro.crypto.aes import AES128

PrfBackend = Literal["sha256", "aes"]

#: Bytes per pad chunk (one PRF output, one AES block).
CHUNK_BYTES = 16


def xor_bytes(data: bytes, pad: bytes) -> bytes:
    """XOR two equal-length byte strings as one big-integer operation."""
    value = int.from_bytes(data, "little") ^ int.from_bytes(pad, "little")
    return value.to_bytes(len(data), "little")


class Prf:
    """A keyed PRF mapping an integer-tuple seed to pseudo-random bytes.

    Parameters
    ----------
    key:
        16-byte key.
    backend:
        ``"sha256"`` (default, fast) or ``"aes"`` (bit-exact AES-CTR-style
        pads, slow).
    """

    def __init__(self, key: bytes, backend: PrfBackend = "sha256") -> None:
        if backend not in ("sha256", "aes"):
            raise ValueError(f"unknown PRF backend: {backend!r}")
        self._key = bytes(key)
        self._backend = backend
        self._aes = AES128(self._pad_key(key)) if backend == "aes" else None

    @staticmethod
    def _pad_key(key: bytes) -> bytes:
        if len(key) == 16:
            return key
        return hashlib.sha256(key).digest()[:16]

    @property
    def backend(self) -> str:
        return self._backend

    def block(self, *seed: int) -> bytes:
        """Return one 16-byte pseudo-random block for the given seed tuple."""
        seed_bytes = b"".join(s.to_bytes(8, "little", signed=False) for s in seed)
        if self._backend == "aes":
            # Hash the seed down to one AES block and encrypt it: a standard
            # PRF construction when the seed may exceed the block size.
            compressed = hashlib.sha256(seed_bytes).digest()[:16]
            assert self._aes is not None
            return self._aes.encrypt_block(compressed)
        return hashlib.sha256(self._key + seed_bytes).digest()[:16]

    def keystream(self, nbytes: int, *seed: int) -> bytes:
        """Return ``nbytes`` of keystream derived from the seed tuple.

        Chunk ``i`` of the keystream is ``block(*seed, i)``, mirroring the
        paper's per-chunk pads ``AES_K(seed || i)``.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        chunks = -(-nbytes // CHUNK_BYTES)
        if self._backend == "aes":
            return b"".join([self.block(*seed, i) for i in range(chunks)])[:nbytes]
        # Same bytes as ``block(*seed, index)``, with the key and seed
        # encoded once per call rather than once per chunk.
        prefix = self._key + b"".join(s.to_bytes(8, "little", signed=False) for s in seed)
        sha256 = hashlib.sha256
        pads = [sha256(prefix + i.to_bytes(8, "little")).digest()[:16] for i in range(chunks)]
        return b"".join(pads)[:nbytes]


class Keystream:
    """Convenience XOR-pad built on :class:`Prf`.

    ``apply`` both encrypts and decrypts (XOR with the same pad).
    """

    def __init__(self, prf: Prf) -> None:
        self._prf = prf

    def apply(self, data: bytes, *seed: int) -> bytes:
        """XOR ``data`` with the keystream derived from ``seed``."""
        return xor_bytes(data, self._prf.keystream(len(data), *seed))
