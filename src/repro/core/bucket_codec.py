"""Serialisation of bucket contents for the encrypted storage back-end.

A bucket holds exactly ``Z`` slots.  Real blocks carry a ``(leaf, address,
payload)`` triplet; unused slots are filled with dummy blocks (address 0)
whose payload is zero bytes, exactly as the protocol requires so that a
bucket's plaintext length never reveals how many real blocks it holds.

Payloads may be ``None`` (functional runs), raw ``bytes`` (processor data)
or a sequence of integers (position-map ORAM blocks holding leaf labels);
each is tagged so decoding restores the original type.

The encrypted storage moves whole paths: :meth:`BucketCodec.encode_path`
and :meth:`BucketCodec.decode_path` handle every bucket of one path in one
call, and the per-bucket :meth:`BucketCodec.encode_blocks` /
:meth:`BucketCodec.decode_blocks` are their one-bucket case.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

from repro.core.config import ORAMConfig
from repro.core.types import DUMMY_ADDRESS, Block
from repro.errors import ConfigurationError, EncryptionError

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
        if block is None or block.address == DUMMY_ADDRESS:
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
            # Concrete sequence types first: the ``Sequence`` ABC check is a
            # slow subclass hook.
            if isinstance(payload, (list, tuple)) or isinstance(payload, Sequence):
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
    # Whole paths, and the one-bucket case
    # ------------------------------------------------------------------
    def encode_path(self, level_buckets: Sequence[Sequence[Block] | None]) -> list[list[bytes]]:
        """Serialise every bucket of a path, each padded with dummies to ``Z``.

        ``level_buckets`` holds one entry per bucket; ``None`` or an empty
        list is an all-dummy bucket.  Every bucket is checked and encoded
        before anything is returned, so a caller that writes the result
        never writes part of a path.

        Raises :class:`ConfigurationError` for a bucket of more than ``Z``
        blocks and :class:`EncryptionError` for a payload the format cannot
        hold.
        """
        z = self._config.z
        encode = self.encode_block
        encoded: list[list[bytes]] = []
        append = encoded.append
        for blocks in level_buckets:
            if not blocks:
                append([_DUMMY_SLOT] * z)
                continue
            count = len(blocks)
            if count > z:
                raise ConfigurationError(f"bucket overfilled: {count} > Z={z}")
            slots = list(map(encode, blocks))
            if count < z:
                slots += [_DUMMY_SLOT] * (z - count)
            append(slots)
        return encoded

    def decode_path(self, bucket_plaintexts: Iterable[Sequence[bytes]]) -> list[Block]:
        """Deserialise the buckets of a path into their real blocks, in
        order, dropping dummy slots."""
        decode = self.decode_block
        blocks: list[Block] = []
        append = blocks.append
        for plaintexts in bucket_plaintexts:
            for plaintext in plaintexts:
                if plaintext != _DUMMY_SLOT:
                    block = decode(plaintext)
                    if block is not None:
                        append(block)
        return blocks

    def encode_blocks(self, blocks: Sequence[Block]) -> list[bytes]:
        """Serialise one bucket's real blocks, padding with dummies to ``Z``."""
        return self.encode_path((blocks,))[0]

    def decode_blocks(self, plaintexts: Sequence[bytes]) -> list[Block]:
        """Deserialise one bucket, dropping dummy slots."""
        return self.decode_path((plaintexts,))

