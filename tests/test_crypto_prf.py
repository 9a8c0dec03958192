"""PRF and keystream tests."""

import hashlib
import pickle

import pytest

from repro.crypto.prf import Keystream, Prf

#: ``Prf(bytes(range(16)), backend).keystream(n, 3, 5).hex()``.  These pin
#: the pad bytes: a change here changes every stored ciphertext and every
#: snapshot that carries one.  ``shake256`` is pad format v2, ``sha256``
#: the frozen v1 format older checkpoints still decrypt with.
GOLDEN_KEYSTREAMS = {
    ("shake256", 0): "",
    ("shake256", 1): "ec",
    ("shake256", 16): "eccbd38fb76a45e113e9d6e50d5fbb34",
    ("shake256", 17): "eccbd38fb76a45e113e9d6e50d5fbb34e6",
    ("shake256", 33): "eccbd38fb76a45e113e9d6e50d5fbb34e66e91ddda8cc68733562d850a1f3f620e",
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

    @pytest.mark.parametrize("backend", ["shake256", "sha256", "aes"])
    @pytest.mark.parametrize(("short", "long"), [(0, 1), (1, 16), (16, 17), (17, 33), (32, 64)])
    def test_keystream_prefix_property(self, backend, short, long):
        prf = Prf(b"k" * 16, backend=backend)
        assert prf.keystream(long, 5)[:short] == prf.keystream(short, 5)

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

    def test_default_backend_is_shake256(self):
        assert Prf(b"k" * 16).backend == "shake256"

    def test_shake256_keystream_is_one_xof_output(self):
        key = bytes(range(16))
        seed = (2**64 - 1).to_bytes(8, "little") + (7).to_bytes(8, "little")
        expected = hashlib.shake_256(key + seed).digest(70)
        assert Prf(key).keystream(70, 2**64 - 1, 7) == expected

    def test_shake256_block_is_first_keystream_chunk(self):
        prf = Prf(b"k" * 16, backend="shake256")
        assert prf.block(4, 2) == prf.keystream(16, 4, 2)
        assert prf.block(4, 2) != prf.block(4, 3)

    def test_pickled_state_layout_is_stable(self):
        # Checkpoints pickle ciphers, and with them this state; a v1
        # (``sha256``) cipher restored from one must keep its pads.
        for backend in ("shake256", "sha256", "aes"):
            state = pickle.loads(pickle.dumps(Prf(b"k" * 16, backend=backend))).__dict__
            assert sorted(state) == ["_aes", "_backend", "_key"]
            assert state["_backend"] == backend

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
