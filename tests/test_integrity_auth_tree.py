"""Authentication-tree (Section 5) tests, including tamper and replay detection."""

import functools
import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import backends
from repro.api import OramSpec, open_oram
from repro.core.config import HierarchyConfig, ORAMConfig
from repro.core.path_oram import PathORAM
from repro.core.tree import EncryptedTreeStorage, TreeStorage, path_indices
from repro.core.types import Block
from repro.crypto.bucket_encryption import CounterBucketCipher
from repro.crypto.keys import ProcessorKey
from repro.errors import IntegrityError
from repro.integrity.auth_tree import AuthCounters, PathORAMAuthenticator
from repro.integrity.storage import IntegrityVerifiedStorage

#: A seeded integrity hierarchical ORAM after ``_seeded_secure_run``: the
#: SHA-256 of every bucket's ciphertext plus each level's root hash, of
#: the pickled snapshot, and each level's hash-traffic counters.  The
#: default bucket pads are format v2 (``shake256``).
GOLDEN_CIPHERTEXT_AND_ROOTS = "861794be0dd401e72cfadc390f7830d659132fabdbd67a4ac6e2ff012390c299"
GOLDEN_SNAPSHOT = "5c1d8eef0302dc9f801c7743db02e67219806f2db9cff0ac357c8e3b3f57cc2f"
#: The same run with pad format v1 (``sha256``) ciphers: the digests every
#: build before v2 produced, so a v1 checkpoint is byte-identical to one
#: taken by those builds.
GOLDEN_CIPHERTEXT_AND_ROOTS_V1 = "f8b55caacf004fca9deaad9e8f6e80fb4eb1ae6c43d9fec4d6eccf4462cf6493"
GOLDEN_SNAPSHOT_V1 = "adee95b28b0ea29b359460c5a8f1038b9740cdd12b8b8b9e3156f1e1cd68b553"
GOLDEN_AUTH_COUNTERS = [
    AuthCounters(sibling_hashes_read=1078, hashes_written=1078, verifications=154, updates=154),
    AuthCounters(sibling_hashes_read=308, hashes_written=308, verifications=154, updates=154),
]


@pytest.fixture
def auth_config() -> ORAMConfig:
    return ORAMConfig(working_set_blocks=64, z=2, block_bytes=16, stash_capacity=60)


def _bucket(value: int, length: int = 8) -> bytes:
    return bytes([value % 256]) * length


class TestAuthenticator:
    def test_uninitialised_paths_verify(self, auth_config):
        # The scheme needs no initialisation: before any write, every path
        # verifies against the initial on-chip root.
        auth = PathORAMAuthenticator(auth_config)
        levels = auth_config.levels
        for leaf in (0, 1, auth_config.num_leaves - 1):
            auth.verify_path(leaf, [b""] * (levels + 1))

    def test_write_then_verify_same_path(self, auth_config):
        auth = PathORAMAuthenticator(auth_config)
        levels = auth_config.levels
        buckets = [_bucket(i) for i in range(levels + 1)]
        auth.update_path(3, buckets)
        auth.verify_path(3, buckets)

    def test_write_then_verify_overlapping_path(self, auth_config):
        auth = PathORAMAuthenticator(auth_config)
        levels = auth_config.levels
        auth.update_path(0, [_bucket(1) for _ in range(levels + 1)])
        # A different path shares at least the root bucket; reading it must
        # still verify, with the shared buckets holding the written data and
        # the rest never written.
        other_leaf = auth_config.num_leaves - 1
        written = set(path_indices(0, levels))
        other_path = path_indices(other_leaf, levels)
        buckets = [_bucket(1) if index in written else b"" for index in other_path]
        auth.verify_path(other_leaf, buckets)

    def test_tampered_bucket_detected(self, auth_config):
        auth = PathORAMAuthenticator(auth_config)
        levels = auth_config.levels
        buckets = [_bucket(i) for i in range(levels + 1)]
        auth.update_path(5, buckets)
        tampered = list(buckets)
        tampered[2] = b"evil bucket"
        with pytest.raises(IntegrityError):
            auth.verify_path(5, tampered)

    def test_replayed_bucket_detected(self, auth_config):
        # Freshness: writing a path twice and then presenting the *old*
        # bucket contents must fail verification.
        auth = PathORAMAuthenticator(auth_config)
        levels = auth_config.levels
        old = [_bucket(1) for _ in range(levels + 1)]
        new = [_bucket(2) for _ in range(levels + 1)]
        auth.update_path(7, old)
        auth.update_path(7, new)
        auth.verify_path(7, new)
        with pytest.raises(IntegrityError):
            auth.verify_path(7, old)

    def test_tampered_external_hash_detected(self, auth_config):
        auth = PathORAMAuthenticator(auth_config)
        levels = auth_config.levels
        # Write two sibling paths so a sibling hash is actually consulted.
        auth.update_path(0, [_bucket(3) for _ in range(levels + 1)])
        auth.update_path(1, [_bucket(4) for _ in range(levels + 1)])
        sibling_leaf_bucket = path_indices(0, levels)[-1]
        auth.tamper_with_hash(sibling_leaf_bucket, b"\x00" * 32)
        with pytest.raises(IntegrityError):
            auth.verify_path(1, [_bucket(4) for _ in range(levels + 1)])

    def test_hash_traffic_is_linear_in_levels(self, auth_config):
        # Section 5: at most L sibling hashes read and L+1 hashes written per access.
        auth = PathORAMAuthenticator(auth_config)
        levels = auth_config.levels
        auth.update_path(2, [_bucket(0) for _ in range(levels + 1)])
        writes_after_one_update = auth.counters.hashes_written
        assert writes_after_one_update <= levels + 1
        auth.verify_path(2, [_bucket(0) for _ in range(levels + 1)])
        assert auth.counters.sibling_hashes_read <= levels


class TestIntegrityVerifiedStorage:
    def _make(self, auth_config):
        cipher = CounterBucketCipher(ProcessorKey(seed=4))
        return IntegrityVerifiedStorage(auth_config, cipher)

    def test_oram_runs_with_verified_storage(self, auth_config):
        storage = self._make(auth_config)
        oram = PathORAM(auth_config, storage=storage, rng=random.Random(6))
        for address in range(1, 65):
            oram.write(address, bytes([address]))
        for address in range(1, 65):
            assert oram.read(address).data == bytes([address])
        assert storage.authenticator.counters.verifications > 0

    def test_tampering_with_ciphertext_is_detected(self, auth_config):
        storage = self._make(auth_config)
        oram = PathORAM(auth_config, storage=storage, rng=random.Random(7))
        for address in range(1, 33):
            oram.write(address, b"x")
        storage.tamper_with_bucket(0, b"corrupted ciphertext")
        with pytest.raises(IntegrityError):
            for address in range(1, 33):
                oram.read(address)

    def test_replaying_old_ciphertext_is_detected(self, auth_config):
        storage = self._make(auth_config)
        oram = PathORAM(auth_config, storage=storage, rng=random.Random(8))
        oram.write(1, b"version-1")
        captured = storage.inner.raw_bucket(0)
        # Drive more traffic so the root bucket is rewritten.
        for address in range(2, 40):
            oram.write(address, b"fill")
        assert storage.inner.raw_bucket(0) != captured
        storage.replay_bucket(0, captured)
        with pytest.raises(IntegrityError):
            for address in range(1, 40):
                oram.read(address)


class _DecoyReadBucketStorage(EncryptedTreeStorage):
    """Inner storage whose ``read_bucket`` disagrees with ``raw_path``."""

    DECOY = Block(address=999, leaf=0, data=b"decoy")

    def read_bucket(self, bucket_index: int) -> list[Block]:
        return [self.DECOY]


class TestReadPathDecodesVerifiedBytes:
    def test_blocks_come_from_the_verified_ciphertext(self, auth_config):
        cipher = CounterBucketCipher(ProcessorKey(seed=4))
        inner = _DecoyReadBucketStorage(auth_config, cipher)
        storage = IntegrityVerifiedStorage(auth_config, cipher, inner=inner)
        leaf = 3
        path = storage.path(leaf)
        root = Block(address=5, leaf=leaf, data=b"root")
        deepest = Block(address=7, leaf=leaf, data=[1, 2])
        storage.write_path(leaf, {path[0]: [root], path[-1]: [deepest]})
        assert storage.read_path(leaf) == [root, deepest]
        assert storage.read_path_blocks(leaf) == [root, deepest]

    def test_never_written_path_reads_empty(self, auth_config):
        cipher = CounterBucketCipher(ProcessorKey(seed=4))
        inner = _DecoyReadBucketStorage(auth_config, cipher)
        storage = IntegrityVerifiedStorage(auth_config, cipher, inner=inner)
        assert storage.read_path(0) == []


def _reachable_by_definition(auth, path, position):
    """Per-position reference: every valid bit above ``path[position]`` is 1."""
    for parent, child in zip(path[:position], path[1 : position + 1]):
        flags = auth._root_flags if parent == 0 else auth._flags[parent]
        if not flags[child - 2 * parent - 1]:
            return False
    return True


class TestPathReachability:
    CONFIG = ORAMConfig(working_set_blocks=64, z=2, block_bytes=16, stash_capacity=60)
    FLAGS = st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=2)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_single_pass_matches_per_position_definition(self, data):
        config = self.CONFIG
        auth = PathORAMAuthenticator(config)
        auth._root_flags = data.draw(self.FLAGS)
        auth._flags = data.draw(
            st.lists(self.FLAGS, min_size=config.num_buckets, max_size=config.num_buckets)
        )
        leaf = data.draw(st.integers(min_value=0, max_value=config.num_leaves - 1))
        path = path_indices(leaf, config.levels)
        expected = [_reachable_by_definition(auth, path, p) for p in range(len(path))]
        assert auth._path_reachability(path) == expected


def _seeded_secure_run():
    data = ORAMConfig(working_set_blocks=256, z=4, block_bytes=32, stash_capacity=200)
    hierarchy = HierarchyConfig(
        data_oram=data, position_map_block_bytes=32, onchip_position_map_limit_bytes=64
    )
    spec = OramSpec(protocol="hierarchical", storage="integrity", plb_entries_per_level=8)
    oram = open_oram(spec, hierarchy, seed=5)
    rng = random.Random(9)
    for step in range(150):
        address = rng.randrange(1, 257)
        if rng.random() < 0.4:
            oram.access(address, "write", bytes([step % 256]) * 32)
        else:
            oram.access(address, "read")
    oram.access_many([1, 2, 3, 2], "read")
    return oram


def _ciphertext_and_roots_digest(oram) -> str:
    digest = hashlib.sha256()
    for level in oram.orams:
        storage = level.storage
        for index in range(level.config.num_buckets):
            digest.update(storage.inner.raw_bucket(index) or b"-")
        digest.update(storage.authenticator.root_hash)
    return digest.hexdigest()


@pytest.fixture
def v1_pads(monkeypatch):
    """Build facade ciphers with pad format v1, as builds before v2 did."""
    monkeypatch.setattr(
        backends, "CounterBucketCipher", functools.partial(CounterBucketCipher, backend="sha256")
    )


class TestSeededSecureRunIsBitExact:
    """Ciphertext, root hashes, snapshot and hash traffic of a seeded run.

    The digests pin the bucket-encryption and authentication-tree output
    byte for byte, so a speed-up of either cannot silently change a stored
    ciphertext.  A deliberate format change must re-record them; one that
    changes the pickled state's layout must also bump the snapshot
    envelope version.

    Pad format v2 (``shake256`` as the default PRF) re-recorded the
    default digests but kept ``SNAPSHOT_VERSION`` at 1: the pickled
    :class:`~repro.crypto.prf.Prf` state (``_key``, ``_backend``,
    ``_aes``) kept its layout, and a pickled cipher carries its back-end.
    A v1 checkpoint is byte-identical to one taken before v2 and restores
    to ciphers that keep decrypting and producing v1 pads, as the ``v1``
    tests below show.
    """

    def test_ciphertext_root_hashes_snapshot_and_counters(self):
        oram = _seeded_secure_run()
        assert _ciphertext_and_roots_digest(oram) == GOLDEN_CIPHERTEXT_AND_ROOTS
        snapshot = pickle.dumps(oram.snapshot(), protocol=4)
        assert hashlib.sha256(snapshot).hexdigest() == GOLDEN_SNAPSHOT
        counters = [level.storage.authenticator.counters for level in oram.orams]
        assert counters == GOLDEN_AUTH_COUNTERS

    def test_v1_pads_reproduce_the_pre_v2_run(self, v1_pads):
        oram = _seeded_secure_run()
        assert _ciphertext_and_roots_digest(oram) == GOLDEN_CIPHERTEXT_AND_ROOTS_V1
        snapshot = pickle.dumps(oram.snapshot(), protocol=4)
        assert hashlib.sha256(snapshot).hexdigest() == GOLDEN_SNAPSHOT_V1
        counters = [level.storage.authenticator.counters for level in oram.orams]
        assert counters == GOLDEN_AUTH_COUNTERS

    def test_snapshot_leaves_out_memoised_path_tables(self):
        oram = _seeded_secure_run()
        assert all(level.storage.inner._path_cache for level in oram.orams)
        assert b"_path_cache" not in oram.snapshot()["state"]

    def test_checkpoint_carrying_path_tables_restores_bit_identically(self, monkeypatch):
        # Builds before the path tables left snapshots pickled them (and the
        # authenticator's unused ``_written`` list); such a checkpoint must
        # restore under the same envelope version and run on identically.
        oram = _seeded_secure_run()
        for level in oram.orams:
            level.storage.authenticator._written = [True] * level.config.num_buckets
        with monkeypatch.context() as patch:
            patch.setattr(TreeStorage, "__getstate__", lambda self: self.__dict__.copy())
            snapshot = oram.snapshot()
        assert b"_path_cache" in snapshot["state"]
        restored = backends.restore_oram(snapshot)
        for running in (oram, restored):
            for address in range(1, 40):
                running.write(address, bytes([address]) * 32)
            assert running.read(7).data == bytes([7]) * 32
        assert _ciphertext_and_roots_digest(restored) == _ciphertext_and_roots_digest(oram)
        restored_counters = [level.storage.authenticator.counters for level in restored.orams]
        assert restored_counters == [level.storage.authenticator.counters for level in oram.orams]

    def test_v1_checkpoint_restores_and_keeps_v1_pads(self, v1_pads, monkeypatch):
        oram = _seeded_secure_run()
        snapshot = oram.snapshot()
        monkeypatch.undo()
        restored = backends.restore_oram(snapshot)
        assert all(level.storage.inner.cipher._prf.backend == "sha256" for level in restored.orams)
        for running in (oram, restored):
            for address in range(1, 40):
                running.write(address, bytes([address]) * 32)
            assert running.read(7).data == bytes([7]) * 32
        assert _ciphertext_and_roots_digest(restored) == _ciphertext_and_roots_digest(oram)
