import hashlib
import hmac as std_hmac
import random

import pytest
from hypothesis import given, strategies as st

from repro.crypto.aes import AesCbc, AesCipher
from repro.crypto.hashes import get_hash, hash_bytes
from repro.crypto.hmac_prf import hmac_digest, p_hash


FIPS_197_PLAINTEXT = "00112233445566778899aabbccddeeff"

#: FIPS-197 appendix C.1-C.3: (key, ciphertext of FIPS_197_PLAINTEXT).
FIPS_197_APPENDIX_C = [
    ("000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"),
    (
        "000102030405060708090a0b0c0d0e0f1011121314151617",
        "dda97ca4864cdfe06eaf70a0ec0d7191",
    ),
    (
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "8ea2b7ca516745bfeafc49904b496089",
    ),
]


class TestAesKnownAnswers:
    """FIPS-197 appendix test vectors."""

    def test_aes128_fips_vector(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert AesCipher(key).encrypt_block(plain) == expected

    def test_aes192_fips_vector(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
        assert AesCipher(key).encrypt_block(plain) == expected

    def test_aes256_fips_vector(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f"
            "101112131415161718191a1b1c1d1e1f"
        )
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert AesCipher(key).encrypt_block(plain) == expected

    def test_decrypt_inverts_fips_vector(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        cipher = AesCipher(key)
        ct = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert cipher.decrypt_block(ct) == bytes.fromhex(
            "00112233445566778899aabbccddeeff"
        )

    @pytest.mark.parametrize("direction", ["encrypt", "decrypt"])
    @pytest.mark.parametrize(
        "key_hex,cipher_hex", FIPS_197_APPENDIX_C, ids=["C.1", "C.2", "C.3"]
    )
    def test_fips_vectors_both_directions(self, key_hex, cipher_hex, direction):
        cipher = AesCipher(bytes.fromhex(key_hex))
        plain = bytes.fromhex(FIPS_197_PLAINTEXT)
        if direction == "encrypt":
            assert cipher.encrypt_block(plain) == bytes.fromhex(cipher_hex)
        else:
            assert cipher.decrypt_block(bytes.fromhex(cipher_hex)) == plain

    def test_invalid_key_length_rejected(self):
        with pytest.raises(ValueError):
            AesCipher(b"short")

    def test_invalid_block_rejected(self):
        with pytest.raises(ValueError):
            AesCipher(b"k" * 16).encrypt_block(b"x" * 15)

    def test_invalid_block_rejected_on_decrypt(self):
        with pytest.raises(ValueError):
            AesCipher(b"k" * 16).decrypt_block(b"x" * 17)


class TestAesCbc:
    def test_round_trip(self):
        cbc = AesCbc(b"k" * 16, b"i" * 16)
        plaintext = b"0123456789abcdef" * 4
        assert AesCbc(b"k" * 16, b"i" * 16).decrypt(cbc.encrypt(plaintext)) == plaintext

    def test_unaligned_input_rejected(self):
        with pytest.raises(ValueError):
            AesCbc(b"k" * 16, b"i" * 16).encrypt(b"short")

    def test_unaligned_input_rejected_on_decrypt(self):
        with pytest.raises(ValueError):
            AesCbc(b"k" * 16, b"i" * 16).decrypt(b"x" * 31)

    def test_bad_iv_rejected(self):
        with pytest.raises(ValueError):
            AesCbc(b"k" * 16, b"iv")

    def test_iv_affects_ciphertext(self):
        plaintext = b"0123456789abcdef"
        a = AesCbc(b"k" * 16, b"\x00" * 16).encrypt(plaintext)
        b = AesCbc(b"k" * 16, b"\x01" + b"\x00" * 15).encrypt(plaintext)
        assert a != b

    def test_cross_validation_with_cryptography(self):
        from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

        key, iv = b"K" * 32, b"I" * 16
        plaintext = b"cross validation" * 2
        ours = AesCbc(key, iv).encrypt(plaintext)
        enc = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
        theirs = enc.update(plaintext) + enc.finalize()
        assert ours == theirs

    # Sweep traffic averages about 1.4 KB per CBC call; 512 blocks
    # (8 KiB) covers the largest service replies.
    @pytest.mark.parametrize("direction", ["encrypt", "decrypt"])
    @pytest.mark.parametrize("blocks", [1, 2, 5, 90, 512])
    @pytest.mark.parametrize("key_bits", [128, 192, 256])
    def test_cbc_matches_cryptography(self, key_bits, blocks, direction):
        from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

        rng = random.Random(f"aes-cbc-{key_bits}-{blocks}")
        key, iv = rng.randbytes(key_bits // 8), rng.randbytes(16)
        plaintext = rng.randbytes(16 * blocks)
        enc = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
        ciphertext = enc.update(plaintext) + enc.finalize()
        if direction == "encrypt":
            assert AesCbc(key, iv).encrypt(plaintext) == ciphertext
        else:
            assert AesCbc(key, iv).decrypt(ciphertext) == plaintext

    @given(st.binary(min_size=16, max_size=64).filter(lambda b: len(b) % 16 == 0))
    def test_round_trip_property(self, plaintext):
        key, iv = b"p" * 16, b"q" * 16
        ct = AesCbc(key, iv).encrypt(plaintext)
        assert AesCbc(key, iv).decrypt(ct) == plaintext
        assert ct != plaintext


class TestHashes:
    def test_registry_lookup(self):
        assert get_hash("sha256").digest_size == 32
        assert get_hash("SHA1").digest_size == 20
        assert get_hash("md5").digest_size == 16

    def test_unknown_hash_rejected(self):
        with pytest.raises(ValueError):
            get_hash("sha512")

    def test_digest_matches_hashlib(self):
        assert hash_bytes("sha256", b"x") == hashlib.sha256(b"x").digest()

    def test_strength_ordering(self):
        assert get_hash("md5").strength_rank < get_hash("sha1").strength_rank
        assert get_hash("sha1").strength_rank < get_hash("sha256").strength_rank


class TestHmacAndPHash:
    def test_hmac_matches_stdlib(self):
        ours = hmac_digest("sha256", b"key", b"data")
        theirs = std_hmac.new(b"key", b"data", "sha256").digest()
        assert ours == theirs

    def test_p_hash_deterministic(self):
        a = p_hash("sha256", b"secret", b"seed", 64)
        b = p_hash("sha256", b"secret", b"seed", 64)
        assert a == b

    def test_p_hash_length(self):
        for length in (0, 1, 31, 32, 33, 100):
            assert len(p_hash("sha1", b"s", b"x", length)) == length

    def test_p_hash_prefix_property(self):
        # P_hash output for a shorter length is a prefix of a longer one.
        long = p_hash("sha256", b"secret", b"seed", 96)
        short = p_hash("sha256", b"secret", b"seed", 48)
        assert long[:48] == short

    def test_p_hash_secret_sensitivity(self):
        assert p_hash("sha256", b"a", b"seed", 32) != p_hash("sha256", b"b", b"seed", 32)

    def test_p_hash_negative_length_rejected(self):
        with pytest.raises(ValueError):
            p_hash("sha256", b"s", b"x", -1)
