"""Bit-loop SEC-DED reference codec (test-only oracle).

The original position-by-position Hamming(38,32) + overall-parity codec.
``repro.core.ecc`` evaluates the same code with per-parity-bit masks and
``int.bit_count()``; ``tests/core/test_ecc.py`` checks it against this
module codeword for codeword, raised :class:`EccError` messages included.
"""

from __future__ import annotations

from repro.core.ecc import CODEWORD_BITS, EccError

_PARITY_POSITIONS = (1, 2, 4, 8, 16, 32)
_DATA_POSITIONS = tuple(
    pos for pos in range(1, CODEWORD_BITS) if pos not in _PARITY_POSITIONS
)


def _parity_of_positions(codeword: int, parity_bit: int) -> int:
    """Even parity over all positions covered by *parity_bit* (excl. itself)."""
    parity = 0
    for pos in range(1, CODEWORD_BITS):
        if pos != parity_bit and pos & parity_bit:
            parity ^= (codeword >> pos) & 1
    return parity


def ecc_encode(data: int) -> int:
    """Encode a 32-bit word into a 39-bit SEC-DED codeword."""
    if not 0 <= data < (1 << 32):
        raise ValueError("ecc_encode expects a 32-bit word")
    codeword = 0
    for i, pos in enumerate(_DATA_POSITIONS):
        codeword |= ((data >> i) & 1) << pos
    for parity_bit in _PARITY_POSITIONS:
        codeword |= _parity_of_positions(codeword, parity_bit) << parity_bit
    overall = 0
    for pos in range(1, CODEWORD_BITS):
        overall ^= (codeword >> pos) & 1
    return codeword | overall


def _extract_data(codeword: int) -> int:
    data = 0
    for i, pos in enumerate(_DATA_POSITIONS):
        data |= ((codeword >> pos) & 1) << i
    return data


def ecc_decode(codeword: int) -> tuple[int, bool]:
    """Decode a 39-bit codeword, correcting a single-bit error if present."""
    if not 0 <= codeword < (1 << CODEWORD_BITS):
        raise ValueError("ecc_decode expects a 39-bit codeword")
    syndrome = 0
    for parity_bit in _PARITY_POSITIONS:
        computed = _parity_of_positions(codeword, parity_bit)
        stored = (codeword >> parity_bit) & 1
        if computed != stored:
            syndrome |= parity_bit
    overall = 0
    for pos in range(CODEWORD_BITS):
        overall ^= (codeword >> pos) & 1
    if syndrome == 0:
        if overall == 0:
            return _extract_data(codeword), False
        return _extract_data(codeword), True
    if overall == 0:
        raise EccError(f"double-bit error detected (syndrome={syndrome:#x})")
    if syndrome >= CODEWORD_BITS:
        raise EccError(f"invalid syndrome {syndrome:#x}")
    return _extract_data(codeword ^ (1 << syndrome)), True
