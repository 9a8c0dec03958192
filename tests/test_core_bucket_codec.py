"""Bucket serialisation tests (the plaintext the bucket ciphers encrypt)."""

import pytest

from repro.core.bucket_codec import BucketCodec
from repro.core.config import ORAMConfig
from repro.core.types import DUMMY_ADDRESS, Block
from repro.errors import EncryptionError


@pytest.fixture
def codec() -> BucketCodec:
    return BucketCodec(ORAMConfig(working_set_blocks=64, z=4, block_bytes=16, stash_capacity=60))


#: ``codec.encode_blocks(_blocks())`` as hex, one slot per line: the
#: plaintext layout every bucket cipher encrypts.
GOLDEN_SLOTS = [
    "0300000000000000050000000000000001070000007061796c6f6164",
    "090000000000000001000000000000000203000000"
    "040000000000000000000000000000000700000000000000",
    "0c0000000000000000000000000000000310000000efffffffffffffffffffffffffffffff",
    "140000000000000002000000000000000000000000",
]


def _blocks() -> list[Block]:
    return [
        Block(address=3, leaf=5, data=b"payload"),
        Block(address=9, leaf=1, data=[4, 0, 7]),
        Block(address=12, leaf=0, data=-17),
        Block(address=20, leaf=2, data=None),
    ]


class TestEncodeBlocks:
    @pytest.mark.parametrize("count", [0, 1, 3, 4])
    def test_pads_with_encoded_dummy_slots(self, codec, count):
        blocks = _blocks()[:count]
        expected = [codec.encode_block(block) for block in blocks]
        expected += [codec.encode_block(None)] * (4 - count)
        assert codec.encode_blocks(blocks) == expected

    def test_dummy_block_encodes_like_an_empty_slot(self, codec):
        dummy = Block(address=DUMMY_ADDRESS, leaf=6, data=b"ignored")
        assert codec.encode_block(dummy) == codec.encode_block(None)

    def test_slots_match_golden_vector(self, codec):
        assert [slot.hex() for slot in codec.encode_blocks(_blocks())] == GOLDEN_SLOTS

    @pytest.mark.parametrize("value", [2**127 - 1, -(2**127), 0])
    def test_int_payload_extremes_roundtrip(self, codec, value):
        block = Block(address=1, leaf=0, data=value)
        assert codec.decode_block(codec.encode_block(block)) == block

    def test_roundtrip_drops_dummy_slots(self, codec):
        blocks = _blocks()
        assert codec.decode_blocks(codec.encode_blocks(blocks)) == blocks
        assert codec.decode_blocks(codec.encode_blocks([])) == []


class TestDecodeBlocksRejectsMalformedSlots:
    def test_short_slot_raises(self, codec):
        slots = codec.encode_blocks(_blocks()[:1])
        slots[1] = slots[1][:20]
        with pytest.raises(EncryptionError):
            codec.decode_blocks(slots)

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_truncated_payload_raises(self, codec, index):
        slots = codec.encode_blocks(_blocks())
        slots[index] = slots[index][:-1]
        with pytest.raises(EncryptionError):
            codec.decode_blocks(slots)

    def test_empty_slot_raises(self, codec):
        with pytest.raises(EncryptionError):
            codec.decode_blocks([b""])


class TestEncodeBlockRejectsUnencodablePayloads:
    @pytest.mark.parametrize("labels", [[-1, 2], [2**64], [3, 2**64 + 5]])
    def test_label_outside_64_bits_raises(self, codec, labels):
        with pytest.raises(EncryptionError):
            codec.encode_block(Block(address=1, leaf=0, data=labels))

    @pytest.mark.parametrize("value", [2**127, -(2**127) - 1])
    def test_int_outside_signed_128_bits_raises(self, codec, value):
        with pytest.raises(EncryptionError):
            codec.encode_block(Block(address=1, leaf=0, data=value))
