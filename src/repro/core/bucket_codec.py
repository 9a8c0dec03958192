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

from typing import Sequence

from repro.core.config import ORAMConfig
from repro.core.types import DUMMY_ADDRESS, Block
from repro.errors import EncryptionError

_PAYLOAD_NONE = 0
_PAYLOAD_BYTES = 1
_PAYLOAD_LABELS = 2
_PAYLOAD_INT = 3

#: The encoding of every dummy slot: address 0, leaf 0, no payload.  Built
#: once, so padding a bucket and recognising its dummy slots cost no
#: per-slot serialisation.
_DUMMY_SLOT = (
    DUMMY_ADDRESS.to_bytes(8, "little")
    + (0).to_bytes(8, "little")
    + bytes([_PAYLOAD_NONE])
    + (0).to_bytes(4, "little")
)


class BucketCodec:
    """Encode / decode the ``Z`` per-block plaintexts of one bucket."""

    def __init__(self, config: ORAMConfig) -> None:
        self._config = config

    # ------------------------------------------------------------------
    # Per-block encoding
    # ------------------------------------------------------------------
    def encode_block(self, block: Block | None) -> bytes:
        """Serialise one block (``None`` produces a dummy slot)."""
        if block is None or block.is_dummy():
            return _DUMMY_SLOT
        header = block.address.to_bytes(8, "little") + block.leaf.to_bytes(8, "little")
        payload = block.data
        if payload is None:
            return header + bytes([_PAYLOAD_NONE]) + (0).to_bytes(4, "little")
        if isinstance(payload, (bytes, bytearray)):
            body = bytes(payload)
            return header + bytes([_PAYLOAD_BYTES]) + len(body).to_bytes(4, "little") + body
        if isinstance(payload, int) and not isinstance(payload, bool):
            body = payload.to_bytes(16, "little", signed=True)
            return header + bytes([_PAYLOAD_INT]) + len(body).to_bytes(4, "little") + body
        if isinstance(payload, Sequence):
            labels = [int(v) for v in payload]
            body = b"".join(v.to_bytes(8, "little", signed=False) for v in labels)
            return header + bytes([_PAYLOAD_LABELS]) + len(labels).to_bytes(4, "little") + body
        raise EncryptionError(f"unsupported block payload type: {type(payload).__name__}")

    def decode_block(self, plaintext: bytes) -> Block | None:
        """Deserialise one block; dummies decode to ``None``."""
        if len(plaintext) < 21:
            raise EncryptionError("block plaintext too short")
        address = int.from_bytes(plaintext[0:8], "little")
        leaf = int.from_bytes(plaintext[8:16], "little")
        tag = plaintext[16]
        length = int.from_bytes(plaintext[17:21], "little")
        body = plaintext[21:]
        if address == DUMMY_ADDRESS:
            return None
        if tag == _PAYLOAD_NONE:
            data = None
        elif tag == _PAYLOAD_BYTES:
            if len(body) < length:
                raise EncryptionError("block payload truncated")
            data = body[:length]
        elif tag == _PAYLOAD_INT:
            if len(body) < length:
                raise EncryptionError("integer payload truncated")
            data = int.from_bytes(body[:length], "little", signed=True)
        elif tag == _PAYLOAD_LABELS:
            if len(body) < 8 * length:
                raise EncryptionError("label payload truncated")
            data = [int.from_bytes(body[8 * i : 8 * i + 8], "little") for i in range(length)]
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
