"""Tree geometry and storage back-end tests."""

import pickle
import random

import pytest

from repro.api import OramSpec, open_oram
from repro.core.config import ORAMConfig
from repro.core.path_oram import leaf_common_path_length
from repro.core.tree import (
    EncryptedTreeStorage,
    FlatTreeStorage,
    PlainTreeStorage,
    bucket_level,
    common_path_length,
    path_indices,
)
from repro.core.types import Block
from repro.crypto.bucket_encryption import CounterBucketCipher, StrawmanBucketCipher
from repro.crypto.keys import ProcessorKey
from repro.errors import ConfigurationError, EncryptionError


class TestPathIndices:
    def test_root_only_tree(self):
        assert path_indices(0, 0) == [0]

    def test_three_level_tree_paths(self):
        # L = 2: leaves are buckets 3..6.
        assert path_indices(0, 2) == [0, 1, 3]
        assert path_indices(1, 2) == [0, 1, 4]
        assert path_indices(2, 2) == [0, 2, 5]
        assert path_indices(3, 2) == [0, 2, 6]

    def test_path_length_is_levels_plus_one(self):
        for levels in range(1, 8):
            assert len(path_indices(0, levels)) == levels + 1

    def test_out_of_range_leaf_rejected(self):
        with pytest.raises(ConfigurationError):
            path_indices(4, 2)
        with pytest.raises(ConfigurationError):
            path_indices(-1, 2)

    def test_consecutive_path_entries_are_parent_child(self):
        for leaf in range(8):
            path = path_indices(leaf, 3)
            for parent, child in zip(path, path[1:]):
                assert child in (2 * parent + 1, 2 * parent + 2)

    def test_bucket_level(self):
        assert bucket_level(0) == 0
        assert bucket_level(1) == 1
        assert bucket_level(2) == 1
        assert bucket_level(3) == 2
        assert bucket_level(6) == 2
        assert bucket_level(7) == 3


class TestCommonPathLength:
    def test_figure1_examples(self):
        # Figure 1: an L=3 tree; CPL(leaf1, leaf2) = 3 and CPL(leaf3, leaf8) = 1
        # (the paper labels leaves 1..8; ours are 0..7).
        assert common_path_length(0, 1, 3) == 3
        assert common_path_length(2, 7, 3) == 1

    def test_identical_paths_share_everything(self):
        assert common_path_length(5, 5, 3) == 4

    def test_fast_formula_matches_tree_walk(self):
        rng = random.Random(0)
        for _ in range(200):
            levels = rng.randrange(1, 10)
            a = rng.randrange(1 << levels)
            b = rng.randrange(1 << levels)
            assert common_path_length(a, b, levels) == leaf_common_path_length(a, b, levels)

    def test_minimum_is_one(self):
        levels = 4
        for a in range(1 << levels):
            for b in range(1 << levels):
                assert common_path_length(a, b, levels) >= 1


class TestPlainTreeStorage:
    def test_roundtrip_bucket(self, small_config):
        storage = PlainTreeStorage(small_config)
        blocks = [Block(address=1, leaf=2, data="a"), Block(address=2, leaf=2, data="b")]
        storage.write_bucket(0, blocks)
        assert [b.address for b in storage.read_bucket(0)] == [1, 2]

    def test_overfilled_bucket_rejected(self, small_config):
        storage = PlainTreeStorage(small_config)
        blocks = [Block(address=i, leaf=0) for i in range(1, small_config.z + 2)]
        with pytest.raises(ConfigurationError):
            storage.write_bucket(0, blocks)

    def test_read_path_collects_real_blocks(self, small_config):
        storage = PlainTreeStorage(small_config)
        path = storage.path(3)
        storage.write_bucket(path[0], [Block(address=1, leaf=3)])
        storage.write_bucket(path[-1], [Block(address=2, leaf=3)])
        assert {b.address for b in storage.read_path(3)} == {1, 2}

    def test_write_path_clears_unassigned_buckets(self, small_config):
        storage = PlainTreeStorage(small_config)
        path = storage.path(0)
        for index in path:
            storage.write_bucket(index, [Block(address=1, leaf=0)])
        storage.write_path(0, {path[0]: [Block(address=7, leaf=0)]})
        assert [b.address for b in storage.read_bucket(path[0])] == [7]
        for index in path[1:]:
            assert storage.read_bucket(index) == []

    def test_occupancy_counts_real_blocks(self, small_config):
        storage = PlainTreeStorage(small_config)
        storage.write_bucket(0, [Block(address=1, leaf=0)])
        storage.write_bucket(5, [Block(address=2, leaf=1), Block(address=3, leaf=1)])
        assert storage.occupancy() == 3


class TestFlatTreeStorage:
    def test_roundtrip_bucket(self, small_config):
        storage = FlatTreeStorage(small_config)
        blocks = [Block(address=1, leaf=2, data="a"), Block(address=2, leaf=2, data="b")]
        storage.write_bucket(0, blocks)
        assert [b.address for b in storage.read_bucket(0)] == [1, 2]

    def test_overfilled_bucket_rejected(self, small_config):
        storage = FlatTreeStorage(small_config)
        blocks = [Block(address=i, leaf=0) for i in range(1, small_config.z + 2)]
        with pytest.raises(ConfigurationError):
            storage.write_bucket(0, blocks)
        with pytest.raises(ConfigurationError):
            storage.write_path_levels(0, [blocks] + [None] * small_config.levels)

    def test_rewriting_smaller_bucket_clears_stale_slots(self, small_config):
        storage = FlatTreeStorage(small_config)
        storage.write_bucket(0, [Block(address=1, leaf=0), Block(address=2, leaf=0)])
        storage.write_bucket(0, [Block(address=3, leaf=0)])
        assert [b.address for b in storage.read_bucket(0)] == [3]
        assert storage.occupancy() == 1

    def test_read_path_blocks_matches_read_path(self, small_config):
        storage = FlatTreeStorage(small_config)
        path = storage.path(3)
        storage.write_bucket(path[0], [Block(address=1, leaf=3)])
        storage.write_bucket(path[-1], [Block(address=2, leaf=3), Block(address=3, leaf=3)])
        assert storage.read_path_blocks(3) == storage.read_path(3)
        assert {b.address for b in storage.read_path_blocks(3)} == {1, 2, 3}

    def test_write_path_clears_unassigned_buckets(self, small_config):
        storage = FlatTreeStorage(small_config)
        path = storage.path(0)
        for index in path:
            storage.write_bucket(index, [Block(address=1, leaf=0)])
        storage.write_path(0, {path[0]: [Block(address=7, leaf=0)]})
        assert [b.address for b in storage.read_bucket(path[0])] == [7]
        for index in path[1:]:
            assert storage.read_bucket(index) == []

    def test_occupancy_is_maintained_incrementally(self, small_config):
        storage = FlatTreeStorage(small_config)
        storage.write_bucket(0, [Block(address=1, leaf=0)])
        storage.write_bucket(5, [Block(address=2, leaf=1), Block(address=3, leaf=1)])
        assert storage.occupancy() == 3
        storage.write_path(1, {0: [Block(address=4, leaf=1)]})
        recount = sum(len(storage.read_bucket(i)) for i in range(storage.num_buckets))
        assert storage.occupancy() == recount

    def test_path_is_cached_and_stable(self, small_config):
        storage = FlatTreeStorage(small_config)
        first = storage.path(2)
        assert storage.path(2) is first
        assert list(first) == path_indices(2, small_config.levels)


class TestEncryptedTreeStorage:
    @pytest.fixture
    def storage(self, small_config):
        cipher = CounterBucketCipher(ProcessorKey(seed=11))
        return EncryptedTreeStorage(small_config, cipher)

    def test_roundtrip_bucket(self, storage):
        blocks = [Block(address=4, leaf=1, data=b"payload")]
        storage.write_bucket(2, blocks)
        read = storage.read_bucket(2)
        assert len(read) == 1
        assert read[0].address == 4 and read[0].data == b"payload"

    def test_unwritten_bucket_reads_empty(self, storage):
        assert storage.read_bucket(0) == []
        assert storage.raw_bucket(0) is None

    def test_ciphertext_changes_on_rewrite_of_same_content(self, storage):
        blocks = [Block(address=4, leaf=1, data=b"payload")]
        storage.write_bucket(2, blocks)
        first = storage.raw_bucket(2)
        storage.write_bucket(2, blocks)
        second = storage.raw_bucket(2)
        assert first != second

    def test_empty_and_full_buckets_same_ciphertext_length(self, storage, small_config):
        storage.write_bucket(0, [])
        payload = b"x" * small_config.block_bytes
        full = [Block(address=i, leaf=0, data=payload) for i in range(1, small_config.z + 1)]
        storage.write_bucket(1, full)
        # Dummy padding hides the number of real blocks... lengths match as
        # long as payload sizes match; empty buckets use zero-length slots,
        # so we only require that both are non-trivial ciphertexts.
        assert storage.raw_bucket(0) is not None
        assert storage.raw_bucket(1) is not None

    def test_write_path_and_read_path(self, storage):
        path = storage.path(1)
        storage.write_path(1, {path[0]: [Block(address=9, leaf=1, data=b"root")]})
        blocks = storage.read_path(1)
        assert [b.address for b in blocks] == [9]


#: Every bucket cipher the encrypted storage runs: the counter scheme on
#: each PRF back-end, and the strawman scheme.
CIPHERS = ["shake256", "sha256", "aes", "strawman"]


def _cipher(kind: str):
    key = ProcessorKey(seed=11)
    if kind == "strawman":
        return StrawmanBucketCipher(key, rng=random.Random(5))
    return CounterBucketCipher(key, backend=kind)


def _payload(kind: int, address: int, block_bytes: int):
    if kind == 0:
        return None
    if kind == 1:
        return bytes([address % 256]) * block_bytes
    if kind == 2:
        return address * -(10**30)
    return [address, 0, 2**64 - 1]


def _level_buckets(config: ORAMConfig, leaf: int, seed: int) -> list[list[Block] | None]:
    """One bucket per level of the path: empty (``None`` or ``[]``),
    partly full or full, with payloads of every kind the codec encodes."""
    rng = random.Random(seed)
    address = 1
    level_buckets: list[list[Block] | None] = []
    for level in range(config.levels + 1):
        count = (0, 0, 1, config.z - 1, config.z)[level % 5]
        blocks = []
        for _ in range(count):
            data = _payload(rng.randrange(4), address, config.block_bytes)
            blocks.append(Block(address=address, leaf=leaf, data=data))
            address += 1
        level_buckets.append(None if level % 5 == 0 else blocks)
    return level_buckets


class TestEncryptedPathPass:
    """The whole-path pass against the one-bucket methods it generalises."""

    @pytest.mark.parametrize("kind", CIPHERS)
    def test_path_write_matches_bucket_writes_byte_for_byte(self, small_config, kind):
        by_path = EncryptedTreeStorage(small_config, _cipher(kind))
        by_bucket = EncryptedTreeStorage(small_config, _cipher(kind))
        for rewrite, leaf in enumerate((3, 3, small_config.num_leaves - 1)):
            level_buckets = _level_buckets(small_config, leaf, seed=rewrite)
            by_path.write_path_levels(leaf, level_buckets)
            for index, blocks in zip(by_bucket.path(leaf), level_buckets):
                by_bucket.write_bucket(index, blocks or [])
            for index in range(small_config.num_buckets):
                assert by_path.raw_bucket(index) == by_bucket.raw_bucket(index)

            expected = [block for blocks in level_buckets if blocks for block in blocks]
            per_bucket = [
                block for index in by_bucket.path(leaf) for block in by_bucket.read_bucket(index)
            ]
            assert by_path.read_path_blocks(leaf) == per_bucket == expected
            assert by_path.read_path(leaf) == expected
            path = by_path.path(leaf)
            raw = by_path.raw_path(leaf)
            one_by_one = [by_path.decode_path((i,), (data,)) for i, data in zip(path, raw)]
            assert by_path.decode_path(path, raw) == [b for blocks in one_by_one for b in blocks]

    def test_write_path_matches_write_path_levels(self, small_config):
        by_levels = EncryptedTreeStorage(small_config, _cipher("shake256"))
        by_mapping = EncryptedTreeStorage(small_config, _cipher("shake256"))
        level_buckets = _level_buckets(small_config, 6, seed=1)
        by_levels.write_path_levels(6, level_buckets)
        path = by_mapping.path(6)
        by_mapping.write_path(6, {i: b for i, b in zip(path, level_buckets) if b})
        assert by_levels.raw_path(6) == by_mapping.raw_path(6)

    @pytest.mark.parametrize("kind", CIPHERS)
    @pytest.mark.parametrize("damage", ["truncated", "short"])
    def test_damaged_ciphertext_mid_path_raises_encryption_error(self, small_config, kind, damage):
        storage = EncryptedTreeStorage(small_config, _cipher(kind))
        leaf = 5
        storage.write_path_levels(leaf, _level_buckets(small_config, leaf, seed=2))
        victim = storage.path(leaf)[small_config.levels // 2]
        ciphertext = storage.raw_bucket(victim)
        storage._buckets[victim] = ciphertext[:-3] if damage == "truncated" else ciphertext[:5]
        with pytest.raises(EncryptionError):
            storage.read_path_blocks(leaf)

    def test_overfilled_path_is_rejected_before_anything_is_written(self, small_config):
        storage = EncryptedTreeStorage(small_config, _cipher("shake256"))
        blocks = [Block(address=i, leaf=0) for i in range(1, small_config.z + 2)]
        level_buckets = [[Block(address=99, leaf=0)]] + [None] * small_config.levels
        level_buckets[-1] = blocks
        with pytest.raises(ConfigurationError):
            storage.write_path_levels(0, level_buckets)
        assert storage.raw_path(0) == [b""] * (small_config.levels + 1)
        with pytest.raises(ConfigurationError):
            storage.write_path_levels(0, [None] * small_config.levels)

    def test_unencodable_payload_mid_path_writes_nothing(self, small_config):
        storage = EncryptedTreeStorage(small_config, _cipher("shake256"))
        level_buckets = [[Block(address=1, leaf=0)]] + [None] * small_config.levels
        level_buckets[2] = [Block(address=2, leaf=0, data=object())]
        with pytest.raises(EncryptionError):
            storage.write_path_levels(0, level_buckets)
        assert storage.raw_path(0) == [b""] * (small_config.levels + 1)


class TestMemoTablesStayOutOfSnapshots:
    @pytest.mark.parametrize("make", [PlainTreeStorage, FlatTreeStorage])
    def test_pickle_drops_path_tables_and_restores_them_empty(self, small_config, make):
        storage = make(small_config)
        storage.write_path_levels(3, [[Block(address=1, leaf=3)]] + [None] * small_config.levels)
        first = storage.read_path_blocks(3)
        assert storage._path_cache
        state = pickle.dumps(storage)
        assert b"_path_cache" not in state and b"_base_cache" not in state
        restored = pickle.loads(state)
        assert restored._path_cache == {}
        assert restored.read_path_blocks(3) == first
        assert restored.path(3) == storage.path(3)


class TestBucketLengthLeak:
    @pytest.mark.xfail(
        strict=True,
        reason="a dummy slot is 21 bytes and a real one 21 + payload bytes, so a bucket's "
        "ciphertext length reveals how many real blocks it holds (ROADMAP: fixed-size slots)",
    )
    @pytest.mark.parametrize("payload", ["int", "bytes"])
    @pytest.mark.parametrize("storage", ["encrypted", "integrity"])
    def test_bucket_length_is_independent_of_occupancy(self, storage, payload):
        # Section 2.2 fixes the bucket size at M = Z(L + U + B) + 64 bits so
        # that an observer learns nothing from it.
        config = ORAMConfig(working_set_blocks=256, block_bytes=64)
        oram = open_oram(OramSpec(protocol="flat", storage=storage), config, seed=3)
        for address in range(1, 257):
            oram.write(address, address if payload == "int" else bytes(64))
        device = oram.storage if storage == "encrypted" else oram.storage.inner
        raw = [device.raw_bucket(index) for index in range(config.num_buckets)]
        assert len({len(ciphertext) for ciphertext in raw if ciphertext}) == 1
