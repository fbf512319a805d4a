"""PKCS#1 paddings: v1.5 (signing + encryption), OAEP, and PSS.

These map one-to-one onto the asymmetric algorithms the OPC UA
security policies name (cf. paper Table 1): Basic128Rsa15 uses
RSAES-PKCS1-v1_5, Basic256/Basic256Sha256/Aes128_Sha256_RsaOaep use
RSA-OAEP, and Aes256_Sha256_RsaPss signs with RSASSA-PSS.
"""

from __future__ import annotations

import random

from repro.asn1 import der
from repro.crypto.hashes import get_hash
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey


class CryptoError(Exception):
    """Padding/verification failure or unusable parameters."""


# DigestInfo prefixes for EMSA-PKCS1-v1_5 (RFC 8017 §9.2).
_DIGEST_OIDS = {
    "md5": "1.2.840.113549.2.5",
    "sha1": "1.3.14.3.2.26",
    "sha256": "2.16.840.1.101.3.4.2.1",
}


def _int_to_bytes(value: int, length: int) -> bytes:
    return value.to_bytes(length, "big")


def _bytes_to_int(data: bytes) -> int:
    return int.from_bytes(data, "big")


def _digest_info(hash_name: str, digest: bytes) -> bytes:
    algorithm = der.Sequence(
        [der.ObjectIdentifier(_DIGEST_OIDS[hash_name]), der.Null()]
    )
    return der.encode_der(der.Sequence([algorithm, der.OctetString(digest)]))


def _mgf1(hash_name: str, seed: bytes, length: int) -> bytes:
    alg = get_hash(hash_name)
    out = bytearray()
    counter = 0
    while len(out) < length:
        out.extend(alg.digest(seed + counter.to_bytes(4, "big")))
        counter += 1
    return bytes(out[:length])


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


# --- RSASSA-PKCS1-v1_5 ------------------------------------------------------


def pkcs1v15_sign(key: RsaPrivateKey, hash_name: str, message: bytes) -> bytes:
    alg = get_hash(hash_name)
    info = _digest_info(hash_name, alg.digest(message))
    k = key.byte_length
    if len(info) + 11 > k:
        raise CryptoError("key too small for digest")
    padding = b"\xff" * (k - len(info) - 3)
    em = b"\x00\x01" + padding + b"\x00" + info
    return _int_to_bytes(key.raw_sign(_bytes_to_int(em)), k)


def pkcs1v15_verify(
    key: RsaPublicKey, hash_name: str, message: bytes, signature: bytes
) -> bool:
    k = key.byte_length
    if len(signature) != k:
        return False
    try:
        em = _int_to_bytes(key.raw_verify(_bytes_to_int(signature)), k)
    except ValueError:
        return False
    alg = get_hash(hash_name)
    info = _digest_info(hash_name, alg.digest(message))
    if len(info) + 11 > k:
        return False
    expected = b"\x00\x01" + b"\xff" * (k - len(info) - 3) + b"\x00" + info
    return em == expected


# --- RSAES-PKCS1-v1_5 -------------------------------------------------------


def pkcs1v15_encrypt(
    key: RsaPublicKey, message: bytes, rng: random.Random
) -> bytes:
    k = key.byte_length
    if len(message) > k - 11:
        raise CryptoError("message too long for RSAES-PKCS1-v1_5")
    pad_len = k - len(message) - 3
    padding = bytes(rng.randrange(1, 256) for _ in range(pad_len))
    em = b"\x00\x02" + padding + b"\x00" + message
    return _int_to_bytes(key.raw_encrypt(_bytes_to_int(em)), k)


def pkcs1v15_decrypt(key: RsaPrivateKey, ciphertext: bytes) -> bytes:
    k = key.byte_length
    if len(ciphertext) != k:
        raise CryptoError("ciphertext length mismatch")
    em = _int_to_bytes(key.raw_decrypt(_bytes_to_int(ciphertext)), k)
    if not em.startswith(b"\x00\x02"):
        raise CryptoError("bad RSAES-PKCS1-v1_5 header")
    try:
        sep = em.index(b"\x00", 2)
    except ValueError:
        raise CryptoError("missing RSAES-PKCS1-v1_5 separator") from None
    if sep < 10:
        raise CryptoError("padding string too short")
    return em[sep + 1 :]


def pkcs1v15_max_plaintext(key_bytes: int) -> int:
    return key_bytes - 11


# --- RSAES-OAEP -------------------------------------------------------------


def oaep_encrypt(
    key: RsaPublicKey,
    message: bytes,
    rng: random.Random,
    hash_name: str = "sha1",
    label: bytes = b"",
) -> bytes:
    alg = get_hash(hash_name)
    k = key.byte_length
    h_len = alg.digest_size
    if len(message) > k - 2 * h_len - 2:
        raise CryptoError("message too long for OAEP")
    l_hash = alg.digest(label)
    ps = b"\x00" * (k - len(message) - 2 * h_len - 2)
    db = l_hash + ps + b"\x01" + message
    seed = bytes(rng.randrange(256) for _ in range(h_len))
    masked_db = _xor(db, _mgf1(hash_name, seed, k - h_len - 1))
    masked_seed = _xor(seed, _mgf1(hash_name, masked_db, h_len))
    em = b"\x00" + masked_seed + masked_db
    return _int_to_bytes(key.raw_encrypt(_bytes_to_int(em)), k)


def oaep_decrypt(
    key: RsaPrivateKey,
    ciphertext: bytes,
    hash_name: str = "sha1",
    label: bytes = b"",
) -> bytes:
    alg = get_hash(hash_name)
    k = key.byte_length
    h_len = alg.digest_size
    if len(ciphertext) != k or k < 2 * h_len + 2:
        raise CryptoError("ciphertext length mismatch")
    em = _int_to_bytes(key.raw_decrypt(_bytes_to_int(ciphertext)), k)
    if em[0] != 0:
        raise CryptoError("bad OAEP leading byte")
    masked_seed = em[1 : 1 + h_len]
    masked_db = em[1 + h_len :]
    seed = _xor(masked_seed, _mgf1(hash_name, masked_db, h_len))
    db = _xor(masked_db, _mgf1(hash_name, seed, k - h_len - 1))
    l_hash = alg.digest(label)
    if db[:h_len] != l_hash:
        raise CryptoError("OAEP label mismatch")
    try:
        sep = db.index(b"\x01", h_len)
    except ValueError:
        raise CryptoError("missing OAEP separator") from None
    if any(byte != 0 for byte in db[h_len:sep]):
        raise CryptoError("bad OAEP padding")
    return db[sep + 1 :]


def oaep_max_plaintext(key_bytes: int, hash_name: str = "sha1") -> int:
    return key_bytes - 2 * get_hash(hash_name).digest_size - 2


# --- RSASSA-PSS -------------------------------------------------------------


def pss_sign(
    key: RsaPrivateKey,
    hash_name: str,
    message: bytes,
    rng: random.Random,
    salt_length: int | None = None,
) -> bytes:
    alg = get_hash(hash_name)
    h_len = alg.digest_size
    salt_length = h_len if salt_length is None else salt_length
    em_bits = key.bit_length - 1
    em_len = (em_bits + 7) // 8
    if em_len < h_len + salt_length + 2:
        raise CryptoError("key too small for PSS")
    m_hash = alg.digest(message)
    salt = bytes(rng.randrange(256) for _ in range(salt_length))
    m_prime = b"\x00" * 8 + m_hash + salt
    h = alg.digest(m_prime)
    ps = b"\x00" * (em_len - salt_length - h_len - 2)
    db = ps + b"\x01" + salt
    masked_db = bytearray(_xor(db, _mgf1(hash_name, h, em_len - h_len - 1)))
    # Clear the leftmost bits so EM fits in em_bits.
    masked_db[0] &= 0xFF >> (8 * em_len - em_bits)
    em = bytes(masked_db) + h + b"\xbc"
    return _int_to_bytes(key.raw_sign(_bytes_to_int(em)), key.byte_length)


def pss_verify(
    key: RsaPublicKey,
    hash_name: str,
    message: bytes,
    signature: bytes,
    salt_length: int | None = None,
) -> bool:
    alg = get_hash(hash_name)
    h_len = alg.digest_size
    salt_length = h_len if salt_length is None else salt_length
    if len(signature) != key.byte_length:
        return False
    em_bits = key.bit_length - 1
    em_len = (em_bits + 7) // 8
    try:
        em_int = key.raw_verify(_bytes_to_int(signature))
    except ValueError:
        return False
    em = _int_to_bytes(em_int, key.byte_length)[-em_len:]
    if em_len < h_len + salt_length + 2 or em[-1] != 0xBC:
        return False
    masked_db = bytearray(em[: em_len - h_len - 1])
    h = em[em_len - h_len - 1 : -1]
    top_mask = 0xFF >> (8 * em_len - em_bits)
    if masked_db[0] & ~top_mask & 0xFF:
        return False
    db = bytearray(_xor(bytes(masked_db), _mgf1(hash_name, h, em_len - h_len - 1)))
    db[0] &= top_mask
    ps_len = em_len - h_len - salt_length - 2
    if any(byte != 0 for byte in db[:ps_len]) or db[ps_len] != 0x01:
        return False
    salt = bytes(db[ps_len + 1 :])
    m_prime = b"\x00" * 8 + alg.digest(message) + salt
    return alg.digest(m_prime) == h
