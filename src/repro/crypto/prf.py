"""Keyed pseudo-random functions and one-time-pad keystreams.

The paper's bucket encryption generates one-time pads with
``AES_K(seed || chunk_index)``.  Pure-Python AES is far too slow to sit on
the hot path of million-access simulations, so the PRFs here are keyed
hashes.  ORAM behaviour depends only on the existence of a keyed PRF, not
on which one, so this substitution leaves every protocol result unchanged.
Every seed field is encoded as a fixed 8-byte little-endian integer, so
distinct seed tuples of one arity never share an input.  Three back-ends:

* ``"shake256"`` (default, pad format v2): the whole keystream is one
  ``SHAKE-256(key || seed)`` output, one C-level call however long the pad.
* ``"sha256"`` (pad format v1, frozen): chunk ``i`` of a keystream is
  ``SHA-256(key || seed || i)[:16]``.  Kept byte for byte so that a cipher
  pickled with it (a checkpoint taken under v1) keeps decrypting its own
  ciphertext.
* ``"aes"``: chunk ``i`` is :meth:`Prf.block` ``(*seed, i)``, the bit-exact
  per-chunk AES reference.

Where the cost goes: a ``shake256`` pad is one hash call per bucket, and
the counter cipher (like :meth:`Keystream.apply`) XORs the whole bucket as
one big-integer operation, so what remains per bucket is that one call,
the XOR and the bucket codec.  A ``sha256`` pad still pays one hash call
per 16-byte chunk.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from typing import Literal

from repro.crypto.aes import AES128

PrfBackend = Literal["shake256", "sha256", "aes"]

#: Bytes per pad chunk (one PRF output, one AES block).
CHUNK_BYTES = 16


@functools.lru_cache(maxsize=None)
def _seed_struct(fields: int) -> struct.Struct:
    """Packs a seed of ``fields`` integers as fixed 8-byte little-endian fields."""
    return struct.Struct(f"<{fields}Q")


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
        ``"shake256"`` (default, fastest; pad format v2), ``"sha256"``
        (pad format v1) or ``"aes"`` (bit-exact AES-CTR-style pads, slow).
    """

    def __init__(self, key: bytes, backend: PrfBackend = "shake256") -> None:
        if backend not in ("shake256", "sha256", "aes"):
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
        if self._backend == "shake256":
            return self.keystream(CHUNK_BYTES, *seed)
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

        ``shake256``: the first ``nbytes`` of ``SHAKE-256(key || seed)``, so
        a shorter keystream is a prefix of a longer one.  ``sha256`` and
        ``aes``: chunk ``i`` is ``block(*seed, i)``, mirroring the paper's
        per-chunk pads ``AES_K(seed || i)``, at one PRF call per chunk.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self._backend == "shake256":
            seed_bytes = _seed_struct(len(seed)).pack(*seed)
            return hashlib.shake_256(self._key + seed_bytes).digest(nbytes)
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
