"""Bucket encryption scheme tests (Section 2.2)."""

import pickle
import random

import pytest

from repro.crypto.bucket_encryption import (
    CounterBucketCipher,
    StrawmanBucketCipher,
    counter_bucket_bits,
    strawman_bucket_bits,
)
from repro.crypto.keys import ProcessorKey
from repro.errors import EncryptionError

#: The second ``CounterBucketCipher(ProcessorKey(seed=7), backend="sha256")``
#: ``encrypt`` of bucket 11 (after one ``[b"x"]``) with the blocks of
#: ``TestCounterScheme``: pad format v1.
GOLDEN_COUNTER_CIPHERTEXT = (
    "0200000000000000",  # BucketCounter 2, stored in the clear
    "0476d54d2dd6e84092308053070f7bde5ed0067889e1291a8bc0fa7f4f00c52c1d52a0a57472ff2abb",
)

#: The same encryption under the default ``shake256`` back-end (pad format
#: v2); the ciphertext length is unchanged.
GOLDEN_COUNTER_CIPHERTEXT_V2 = (
    "0200000000000000",
    "99df6e43a15c17ae5b96000d1d2dc41cef5907e2d1ef588b4e1a8525d584a8aa26ef55b2d96a03e3f6",
)

#: ``StrawmanBucketCipher(ProcessorKey(seed=7), backend="sha256",
#: rng=random.Random(1))`` encrypting ``[b"alpha", b"beta", b"gamma-gamma"]``
#: into bucket 4, one ``nonce || Enc_K(K') || length || body`` group per
#: block: pad format v1.
GOLDEN_STRAWMAN_CIPHERTEXT = (
    "0100000000000000",
    "199e597fef243f4b9ec84f7742d01e5e",
    "05000000",
    "a556de566e",
    "0200000000000000",
    "b3c52d6a710d7a29c9ed766f9df168a3",
    "04000000",
    "d4244d44",
    "0300000000000000",
    "a39efb3c9361a62264916d1afed2136a",
    "0b000000",
    "75bc329d9d59cf91b02a12",
)

#: The same encryption under the default ``shake256`` back-end (v2).
GOLDEN_STRAWMAN_CIPHERTEXT_V2 = (
    "0100000000000000",
    "df029b01da75ff7a7b2408a83752c504",
    "05000000",
    "198ed86940",
    "0200000000000000",
    "8d14b7ac69bbf2929d5253b7867932c0",
    "04000000",
    "a84562b4",
    "0300000000000000",
    "c02a95a3fed969d97cf1eb2c70568c92",
    "0b000000",
    "8726960b27e4bcba357db8",
)

_COUNTER_BLOCKS = [b"block-one", b"block-two-longer", b""]


@pytest.fixture
def key() -> ProcessorKey:
    return ProcessorKey(seed=7)


class TestCounterScheme:
    def test_roundtrip(self, key):
        cipher = CounterBucketCipher(key)
        blocks = [b"block-one", b"block-two-longer", b""]
        ciphertext = cipher.encrypt(3, blocks)
        assert cipher.decrypt(3, ciphertext) == blocks

    def test_ciphertext_matches_golden_vector(self, key):
        cipher = CounterBucketCipher(key, backend="sha256")
        cipher.encrypt(11, [b"x"])
        blocks = [b"block-one", b"block-two-longer", b""]
        ciphertext = cipher.encrypt(11, blocks)
        assert ciphertext.hex() == "".join(GOLDEN_COUNTER_CIPHERTEXT)
        assert cipher.decrypt(11, ciphertext) == blocks

    def test_default_ciphertext_matches_v2_golden_vector(self, key):
        cipher = CounterBucketCipher(key)
        cipher.encrypt(11, [b"x"])
        ciphertext = cipher.encrypt(11, _COUNTER_BLOCKS)
        assert ciphertext.hex() == "".join(GOLDEN_COUNTER_CIPHERTEXT_V2)
        assert cipher.decrypt(11, ciphertext) == _COUNTER_BLOCKS

    @pytest.mark.parametrize("backend", ["shake256", "sha256", "aes"])
    def test_ciphertext_length_does_not_depend_on_backend(self, key, backend):
        ciphertext = CounterBucketCipher(key, backend=backend).encrypt(11, _COUNTER_BLOCKS)
        assert len(ciphertext) == len("".join(GOLDEN_COUNTER_CIPHERTEXT)) // 2

    def test_pickled_v1_cipher_keeps_its_pads(self, key):
        # A checkpoint taken under pad format v1 pickles its cipher with
        # ``backend="sha256"``; once restored it must decrypt the stored
        # ciphertext and go on producing v1 pads, not the v2 default.
        cipher = CounterBucketCipher(key, backend="sha256")
        old_ciphertext = cipher.encrypt(11, [b"x"])
        restored = pickle.loads(pickle.dumps(cipher))
        assert restored.decrypt(11, old_ciphertext) == [b"x"]
        ciphertext = restored.encrypt(11, _COUNTER_BLOCKS)
        assert ciphertext.hex() == "".join(GOLDEN_COUNTER_CIPHERTEXT)
        assert restored.decrypt(11, ciphertext) == _COUNTER_BLOCKS

    def test_randomized_reencryption_changes_ciphertext(self, key):
        cipher = CounterBucketCipher(key)
        blocks = [b"same plaintext"]
        first = cipher.encrypt(5, blocks)
        second = cipher.encrypt(5, blocks)
        assert first != second
        assert cipher.decrypt(5, first) == blocks
        assert cipher.decrypt(5, second) == blocks

    def test_counter_increments_per_bucket(self, key):
        cipher = CounterBucketCipher(key)
        cipher.encrypt(2, [b"a"])
        cipher.encrypt(2, [b"b"])
        cipher.encrypt(9, [b"c"])
        assert cipher.current_counter(2) == 2
        assert cipher.current_counter(9) == 1
        assert cipher.current_counter(100) == 0

    def test_distinct_buckets_have_distinct_pads(self, key):
        # Same plaintext, same counter value, different BucketID must
        # produce different ciphertext bodies (the BucketID seeds the pad).
        cipher = CounterBucketCipher(key)
        body_a = cipher.encrypt(1, [b"identical"])[8:]
        body_b = cipher.encrypt(2, [b"identical"])[8:]
        assert body_a != body_b

    def test_truncated_ciphertext_rejected(self, key):
        cipher = CounterBucketCipher(key)
        with pytest.raises(EncryptionError):
            cipher.decrypt(0, b"abc")

    def test_corrupted_length_field_rejected(self, key):
        cipher = CounterBucketCipher(key)
        ciphertext = bytearray(cipher.encrypt(0, [b"payload"]))
        ciphertext = ciphertext[: len(ciphertext) // 2]
        with pytest.raises(EncryptionError):
            cipher.decrypt(0, bytes(ciphertext))

    def test_different_runs_use_different_keys(self):
        # A fresh processor key per program start defends replay attacks.
        blocks = [b"data"]
        run1 = CounterBucketCipher(ProcessorKey(seed=1)).encrypt(0, blocks)
        run2 = CounterBucketCipher(ProcessorKey(seed=2)).encrypt(0, blocks)
        assert run1 != run2


class TestStrawmanScheme:
    def test_roundtrip(self, key):
        cipher = StrawmanBucketCipher(key, rng=random.Random(1))
        blocks = [b"alpha", b"beta", b"gamma-gamma"]
        ciphertext = cipher.encrypt(4, blocks)
        assert cipher.decrypt(4, ciphertext) == blocks

    def test_ciphertext_matches_golden_vector(self, key):
        cipher = StrawmanBucketCipher(key, backend="sha256", rng=random.Random(1))
        blocks = [b"alpha", b"beta", b"gamma-gamma"]
        ciphertext = cipher.encrypt(4, blocks)
        assert ciphertext.hex() == "".join(GOLDEN_STRAWMAN_CIPHERTEXT)
        assert cipher.decrypt(4, ciphertext) == blocks

    def test_default_ciphertext_matches_v2_golden_vector(self, key):
        cipher = StrawmanBucketCipher(key, rng=random.Random(1))
        blocks = [b"alpha", b"beta", b"gamma-gamma"]
        ciphertext = cipher.encrypt(4, blocks)
        assert ciphertext.hex() == "".join(GOLDEN_STRAWMAN_CIPHERTEXT_V2)
        assert cipher.decrypt(4, ciphertext) == blocks

    def test_randomized_reencryption_changes_ciphertext(self, key):
        cipher = StrawmanBucketCipher(key, rng=random.Random(2))
        first = cipher.encrypt(1, [b"x"])
        second = cipher.encrypt(1, [b"x"])
        assert first != second

    def test_truncated_ciphertext_rejected(self, key):
        cipher = StrawmanBucketCipher(key, rng=random.Random(3))
        ciphertext = cipher.encrypt(0, [b"payload-bytes"])
        with pytest.raises(EncryptionError):
            cipher.decrypt(0, ciphertext[:10])


class TestSizeFormulas:
    def test_counter_bucket_bits_formula(self):
        # M = Z (L + U + B) + 64  (Section 2.2.2)
        assert counter_bucket_bits(4, 23, 25, 1024) == 4 * (23 + 25 + 1024) + 64

    def test_strawman_bucket_bits_formula(self):
        # M = Z (128 + L + U + B)  (Section 2.2.1)
        assert strawman_bucket_bits(4, 23, 25, 1024) == 4 * (128 + 23 + 25 + 1024)

    def test_counter_scheme_saves_per_block_overhead(self):
        # The counter scheme replaces 128 bits per block with 64 per bucket.
        z, l, u, b = 4, 23, 25, 1024
        saving = strawman_bucket_bits(z, l, u, b) - counter_bucket_bits(z, l, u, b)
        assert saving == z * 128 - 64

    def test_class_formulas_match_module_functions(self):
        expected_counter = counter_bucket_bits(3, 20, 22, 256)
        assert CounterBucketCipher.bucket_bits(3, 20, 22, 256) == expected_counter
        expected_strawman = strawman_bucket_bits(3, 20, 22, 256)
        assert StrawmanBucketCipher.bucket_bits(3, 20, 22, 256) == expected_strawman


class TestProcessorKey:
    def test_seeded_keys_are_reproducible(self):
        assert ProcessorKey(seed=5) == ProcessorKey(seed=5)

    def test_different_seeds_differ(self):
        assert ProcessorKey(seed=5) != ProcessorKey(seed=6)

    def test_key_length(self):
        assert len(ProcessorKey(seed=0).key_bytes) == 16

    def test_unseeded_keys_are_random(self):
        assert ProcessorKey() != ProcessorKey()

    def test_hashable(self):
        assert len({ProcessorKey(seed=1), ProcessorKey(seed=1), ProcessorKey(seed=2)}) == 2
