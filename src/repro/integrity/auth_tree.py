"""The paper's Path-ORAM-integrated authentication tree (Section 5).

The authentication tree mirrors the ORAM tree exactly.  Leaf nodes hash
their bucket; each internal node hashes

    H( f0 || f1 || ((f0 or f1) gating the bucket) || f0-gated left child hash
       || f1-gated right child hash )

where ``f0``/``f1`` are the bucket's child-valid flags, stored in external
memory with the bucket.  The root hash and the root's child-valid flags are
kept on chip.  The gating means never-written subtrees contribute a fixed
all-zero value, so neither the authentication tree nor the ORAM tree needs
to be initialised at program start.

Per ORAM access, only the sibling hashes along the accessed path (at most
``L`` of them) are read and only the ``L`` path hashes are rewritten — in
contrast to the strawman Merkle tree's ``Z (L+1)^2`` hashes.

The tree's geometry comes from heap order alone: a child ``c`` on a path
is a left child when ``c`` is odd, its sibling is ``((c - 1) ^ 1) + 1``
(``c + 1`` or ``c - 1``), and the parent's child-valid flag towards it is
``f0`` or ``f1`` accordingly.  :meth:`PathORAMAuthenticator.verify_path`
and :meth:`PathORAMAuthenticator.update_path` take the bucket indices of
the path from the caller (the storage memoises them per leaf) and compute
them only when none are given, so the authenticator keeps no per-leaf
table of its own.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from repro.core.config import ORAMConfig
from repro.core.tree import path_indices
from repro.errors import ConfigurationError, IntegrityError

HASH_BYTES = 32
_ZERO_HASH = b"\x00" * HASH_BYTES


def _hash(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


@dataclass
class AuthCounters:
    """Hash-traffic accounting used to check the paper's overhead claim."""

    sibling_hashes_read: int = 0
    hashes_written: int = 0
    verifications: int = 0
    updates: int = 0


class PathORAMAuthenticator:
    """Maintains and checks the mirrored authentication tree for one ORAM."""

    def __init__(self, config: ORAMConfig) -> None:
        self._config = config
        num_buckets = config.num_buckets
        # External state: one hash and two child-valid flags per bucket.
        self._hashes: list[bytes] = [_ZERO_HASH] * num_buckets
        self._flags: list[list[int]] = [[0, 0] for _ in range(num_buckets)]
        # On-chip state: the root hash and the root's child-valid flags.
        self._root_flags = [0, 0]
        # The hash of a root with both flags clear: nothing below it, and
        # its own bucket gated off.
        self._root_hash = _hash(b"\x00\x00" + _ZERO_HASH + _ZERO_HASH)
        self.counters = AuthCounters()

    @property
    def config(self) -> ORAMConfig:
        return self._config

    @property
    def root_hash(self) -> bytes:
        """The on-chip root hash."""
        return self._root_hash

    # ------------------------------------------------------------------
    # Hash computation
    # ------------------------------------------------------------------
    def _path_reachability(self, path: Sequence[int]) -> list[bool]:
        """Whether each bucket on ``path`` was reachable from the root at the
        start of this access (all valid bits above it are 1).

        One top-down pass: a bucket is reachable iff its parent is and the
        parent's child-valid flag towards it (``f0`` for an odd, left
        child) is set.
        """
        flags = self._flags
        parent_flags = self._root_flags
        reachable = True
        reachability = [True]
        for child in path[1:]:
            reachable = reachable and bool(parent_flags[(child & 1) ^ 1])
            reachability.append(reachable)
            parent_flags = flags[child]
        return reachability

    def _hash_path(
        self, path: Sequence[int], buckets: Sequence[bytes], reachability: Sequence[bool]
    ) -> list[bytes]:
        """Hashes of every node on ``path`` from the current flags, root first.

        Bottom-up: the leaf hashes its bucket, and each node above hashes
        ``f0 || f1 || gated bucket || gated left || gated right``, where the
        bucket is gated by ``(f0 or f1)`` and the node's ``reachability``,
        and each child hash (the path child's just computed, the off-path
        sibling's as stored) by its flag.
        """
        hashes = self._hashes
        flags = self._flags
        sha256 = hashlib.sha256
        levels = len(path) - 1
        current = sha256(buckets[levels]).digest()
        path_hashes = [current] * (levels + 1)
        for position in range(levels - 1, -1, -1):
            child = path[position + 1]
            f0, f1 = flags[path[position]] if position else self._root_flags
            if child & 1:
                left = current if f0 else _ZERO_HASH
                right = hashes[child + 1] if f1 else _ZERO_HASH
            else:
                left = hashes[child - 1] if f0 else _ZERO_HASH
                right = current if f1 else _ZERO_HASH
            bucket = buckets[position] if (f0 or f1) and reachability[position] else b""
            current = sha256(bytes((f0, f1)) + bucket + left + right).digest()
            path_hashes[position] = current
        return path_hashes

    def _checked_path(
        self, leaf: int, buckets: Sequence[bytes], path: Sequence[int] | None
    ) -> Sequence[int]:
        if path is None:
            path = path_indices(leaf, self._config.levels)
        if len(buckets) != len(path):
            raise ConfigurationError("bucket count does not match path length")
        return path

    # ------------------------------------------------------------------
    # Public protocol
    # ------------------------------------------------------------------
    def verify_path(
        self, leaf: int, buckets: Sequence[bytes], path: Sequence[int] | None = None
    ) -> None:
        """Verify the buckets read along the path to ``leaf``.

        ``buckets`` are the raw (encrypted) bucket contents, root first;
        never-written buckets should be passed as ``b""``.  ``path`` is the
        path's bucket indices, root first, if the caller already has them.
        Raises :class:`IntegrityError` if the recomputed root does not match
        the on-chip root hash.
        """
        path = self._checked_path(leaf, buckets, path)
        recomputed = self._hash_path(path, buckets, self._path_reachability(path))[0]
        counters = self.counters
        counters.sibling_hashes_read += len(path) - 1
        counters.verifications += 1
        if recomputed != self._root_hash:
            raise IntegrityError(f"authentication failed on path to leaf {leaf}")

    def update_path(
        self, leaf: int, new_buckets: Sequence[bytes], path: Sequence[int] | None = None
    ) -> None:
        """Install new bucket contents along the path to ``leaf``.

        Updates the child-valid flags (the path just written becomes valid;
        sibling flags survive only if the bucket was already reachable),
        recomputes the path hashes bottom-up and refreshes the on-chip root.
        ``path`` is as for :meth:`verify_path`.
        """
        path = self._checked_path(leaf, new_buckets, path)
        levels = len(path) - 1

        # Update child-valid flags along the path (top-down), reading each
        # node's old flags for the reachability of the node below it.
        flags = self._flags
        node_flags = self._root_flags
        reachable = True
        for child in path[1:]:
            direction = (child & 1) ^ 1
            child_reachable = reachable and node_flags[direction]
            node_flags[direction] = 1
            # The other flag is only trustworthy if this bucket was already
            # reachable; otherwise the stored bits are uninitialised memory.
            if not reachable:
                node_flags[direction ^ 1] = 0
            reachable = child_reachable
            node_flags = flags[child]

        # Every bucket on the path has now been written, so it is reachable
        # for the purpose of the new hashes.
        path_hashes = self._hash_path(path, new_buckets, [True] * (levels + 1))
        hashes = self._hashes
        for index, node_hash in zip(path[1:], path_hashes[1:]):
            hashes[index] = node_hash
        if levels:
            self._root_hash = path_hashes[0]
        else:
            hashes[0] = path_hashes[0]
        counters = self.counters
        counters.hashes_written += levels or 1
        counters.updates += 1

    def tamper_with_hash(self, bucket_index: int, new_hash: bytes) -> None:
        """Testing hook: corrupt a stored (external) hash."""
        self._hashes[bucket_index] = new_hash
