"""Serialisation of bucket contents for the encrypted storage back-end.

A bucket holds exactly ``Z`` slots.  Real blocks carry a ``(leaf, address,
payload)`` triplet; unused slots are filled with dummy blocks (address 0)
whose payload is zero bytes, exactly as the protocol requires so that a
bucket's plaintext length never reveals how many real blocks it holds.

Payloads may be ``None`` (functional runs), raw ``bytes`` (processor data)
or a sequence of integers (position-map ORAM blocks holding leaf labels);
each is tagged so decoding restores the original type.
"""

from __future__ import annotations

import struct
from typing import Sequence

from repro.core.config import ORAMConfig
from repro.core.types import DUMMY_ADDRESS, Block
from repro.errors import EncryptionError

_PAYLOAD_NONE = 0
_PAYLOAD_BYTES = 1
_PAYLOAD_LABELS = 2
_PAYLOAD_INT = 3

#: Every slot starts with ``address, leaf`` (unsigned 64-bit), the payload
#: tag (one byte) and the payload length (unsigned 32-bit), little-endian
#: and unpadded: 21 bytes.
_HEADER = struct.Struct("<QQBI")
_HEADER_BYTES = _HEADER.size

#: Bytes of an integer payload (signed 128-bit).
_INT_BYTES = 16

#: The encoding of every dummy slot: address 0, leaf 0, no payload.  Built
#: once, so padding a bucket and recognising its dummy slots cost no
#: per-slot serialisation.
_DUMMY_SLOT = _HEADER.pack(DUMMY_ADDRESS, 0, _PAYLOAD_NONE, 0)


class BucketCodec:
    """Encode / decode the ``Z`` per-block plaintexts of one bucket."""

    def __init__(self, config: ORAMConfig) -> None:
        self._config = config

    # ------------------------------------------------------------------
    # Per-block encoding
    # ------------------------------------------------------------------
    def encode_block(self, block: Block | None) -> bytes:
        """Serialise one block (``None`` produces a dummy slot).

        Raises :class:`EncryptionError` for a payload the format cannot
        hold: an unsupported type, a label outside ``[0, 2**64)`` or an
        integer outside signed 128 bits.
        """
        if block is None or block.is_dummy():
            return _DUMMY_SLOT
        payload = block.data
        try:
            if payload is None:
                return _HEADER.pack(block.address, block.leaf, _PAYLOAD_NONE, 0)
            if isinstance(payload, (bytes, bytearray)):
                header = _HEADER.pack(block.address, block.leaf, _PAYLOAD_BYTES, len(payload))
                return header + payload
            if isinstance(payload, int) and not isinstance(payload, bool):
                body = payload.to_bytes(_INT_BYTES, "little", signed=True)
                return _HEADER.pack(block.address, block.leaf, _PAYLOAD_INT, _INT_BYTES) + body
            if isinstance(payload, Sequence):
                count = len(payload)
                header = _HEADER.pack(block.address, block.leaf, _PAYLOAD_LABELS, count)
                return header + struct.pack(f"<{count}Q", *payload)
        except (struct.error, OverflowError) as exc:
            raise EncryptionError(f"block {block.address} does not fit the codec: {exc}") from exc
        raise EncryptionError(f"unsupported block payload type: {type(payload).__name__}")

    def decode_block(self, plaintext: bytes) -> Block | None:
        """Deserialise one block; dummies decode to ``None``."""
        if len(plaintext) < _HEADER_BYTES:
            raise EncryptionError("block plaintext too short")
        address, leaf, tag, length = _HEADER.unpack_from(plaintext)
        if address == DUMMY_ADDRESS:
            return None
        available = len(plaintext) - _HEADER_BYTES
        if tag == _PAYLOAD_NONE:
            data = None
        elif tag == _PAYLOAD_BYTES:
            if available < length:
                raise EncryptionError("block payload truncated")
            data = plaintext[_HEADER_BYTES : _HEADER_BYTES + length]
        elif tag == _PAYLOAD_INT:
            if available < length:
                raise EncryptionError("integer payload truncated")
            body = plaintext[_HEADER_BYTES : _HEADER_BYTES + length]
            data = int.from_bytes(body, "little", signed=True)
        elif tag == _PAYLOAD_LABELS:
            if available < 8 * length:
                raise EncryptionError("label payload truncated")
            data = list(struct.unpack_from(f"<{length}Q", plaintext, _HEADER_BYTES))
        else:
            raise EncryptionError(f"unknown payload tag {tag}")
        return Block(address=address, leaf=leaf, data=data)

    # ------------------------------------------------------------------
    # Per-bucket encoding
    # ------------------------------------------------------------------
    def encode_blocks(self, blocks: list[Block]) -> list[bytes]:
        """Serialise a bucket's real blocks, padding with dummies to ``Z``."""
        slots = [self.encode_block(block) for block in blocks]
        slots.extend([_DUMMY_SLOT] * (self._config.z - len(slots)))
        return slots

    def decode_blocks(self, plaintexts: list[bytes]) -> list[Block]:
        """Deserialise a bucket, dropping dummy slots."""
        blocks: list[Block] = []
        for plaintext in plaintexts:
            if plaintext == _DUMMY_SLOT:
                continue
            block = self.decode_block(plaintext)
            if block is not None:
                blocks.append(block)
        return blocks
