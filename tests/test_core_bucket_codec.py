"""Bucket serialisation tests (the plaintext the bucket ciphers encrypt)."""

import pytest

from repro.core.bucket_codec import BucketCodec
from repro.core.config import ORAMConfig
from repro.core.types import DUMMY_ADDRESS, Block
from repro.errors import EncryptionError


@pytest.fixture
def codec() -> BucketCodec:
    return BucketCodec(ORAMConfig(working_set_blocks=64, z=4, block_bytes=16, stash_capacity=60))


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
