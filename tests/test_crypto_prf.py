"""PRF and keystream tests."""

import pytest

from repro.crypto.prf import Keystream, Prf

#: ``Prf(bytes(range(16)), backend).keystream(n, 3, 5).hex()``.  These pin
#: the pad bytes: a change here changes every stored ciphertext and every
#: snapshot that carries one.
GOLDEN_KEYSTREAMS = {
    ("sha256", 0): "",
    ("sha256", 1): "17",
    ("sha256", 16): "178c86b7d9846d62f310f99cfa670d9b",
    ("sha256", 17): "178c86b7d9846d62f310f99cfa670d9bb4",
    ("sha256", 33): "178c86b7d9846d62f310f99cfa670d9bb42d4768dc95742959616e8a252bccf07a",
    ("aes", 0): "",
    ("aes", 1): "94",
    ("aes", 16): "94271ec2359e1f90b6d492f4add02f34",
    ("aes", 17): "94271ec2359e1f90b6d492f4add02f3427",
    ("aes", 33): "94271ec2359e1f90b6d492f4add02f34276b5254e625529defd83d2a1c12803ea0",
}


class TestPrf:
    def test_block_is_deterministic(self):
        prf = Prf(b"k" * 16)
        assert prf.block(1, 2, 3) == prf.block(1, 2, 3)

    def test_different_seeds_give_different_blocks(self):
        prf = Prf(b"k" * 16)
        assert prf.block(1, 2, 3) != prf.block(1, 2, 4)

    def test_different_keys_give_different_blocks(self):
        assert Prf(b"a" * 16).block(7) != Prf(b"b" * 16).block(7)

    def test_block_is_16_bytes(self):
        assert len(Prf(b"k" * 16).block(0)) == 16

    def test_keystream_length(self):
        prf = Prf(b"k" * 16)
        for length in (0, 1, 15, 16, 17, 100):
            assert len(prf.keystream(length, 9)) == length

    def test_keystream_prefix_property(self):
        prf = Prf(b"k" * 16)
        long = prf.keystream(64, 5)
        short = prf.keystream(32, 5)
        assert long[:32] == short

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            Prf(b"k" * 16).keystream(-1, 0)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            Prf(b"k" * 16, backend="des")

    def test_aes_backend_works(self):
        prf = Prf(b"k" * 16, backend="aes")
        assert len(prf.block(1)) == 16
        assert prf.block(1) == prf.block(1)
        assert prf.block(1) != prf.block(2)

    def test_backends_differ(self):
        # The two backends are different PRFs; both are valid, but their
        # outputs should not coincide.
        assert Prf(b"k" * 16).block(3) != Prf(b"k" * 16, backend="aes").block(3)

    @pytest.mark.parametrize(("backend", "length"), sorted(GOLDEN_KEYSTREAMS))
    def test_keystream_matches_golden_vector(self, backend, length):
        prf = Prf(bytes(range(16)), backend=backend)
        assert prf.keystream(length, 3, 5).hex() == GOLDEN_KEYSTREAMS[(backend, length)]

    @pytest.mark.parametrize("backend", ["sha256", "aes"])
    def test_keystream_chunks_are_prf_blocks(self, backend):
        prf = Prf(b"k" * 16, backend=backend)
        blocks = b"".join(prf.block(4, 2, index) for index in range(3))
        assert prf.keystream(40, 4, 2) == blocks[:40]

    def test_short_key_padded_for_aes_backend(self):
        prf = Prf(b"key", backend="aes")
        assert len(prf.block(0)) == 16


class TestKeystream:
    def test_apply_roundtrip(self):
        stream = Keystream(Prf(b"k" * 16))
        data = b"the quick brown fox jumps"
        encrypted = stream.apply(data, 42, 7)
        assert encrypted != data
        assert stream.apply(encrypted, 42, 7) == data

    @pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 200])
    def test_apply_equals_bytewise_xor(self, length):
        prf = Prf(b"k" * 16)
        data = bytes((7 * i + 3) % 256 for i in range(length))
        pad = prf.keystream(length, 11, 12)
        expected = bytes(a ^ b for a, b in zip(data, pad))
        stream = Keystream(prf)
        assert stream.apply(data, 11, 12) == expected
        applied = stream.apply(bytearray(data), 11, 12)
        assert type(applied) is bytes
        assert applied == expected

    def test_apply_keeps_leading_and_trailing_zero_bytes(self):
        # The big-integer XOR must not drop zero bytes at either end.
        stream = Keystream(Prf(b"k" * 16))
        data = b"\x00" * 5 + b"mid" + b"\x00" * 5
        encrypted = stream.apply(data, 1)
        assert len(encrypted) == len(data)
        assert stream.apply(encrypted, 1) == data

    def test_different_seed_does_not_decrypt(self):
        stream = Keystream(Prf(b"k" * 16))
        data = b"secret payload bytes"
        encrypted = stream.apply(data, 1)
        assert stream.apply(encrypted, 2) != data
