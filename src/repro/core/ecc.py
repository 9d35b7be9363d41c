"""SEC-DED error-correcting code for 32-bit words.

The paper protects frame headers and the QM's shared working-set pointers
with word-sized ECC (Table 3: "Single-word ECC set/check").  We implement
the classic Hamming(38,32) + overall-parity construction, i.e. a 39-bit
SEC-DED codeword: any single-bit error is corrected, any double-bit error is
detected.

Codeword layout (bit 0 = LSB):
  * positions 1..38 follow the textbook Hamming layout: parity bits sit at
    power-of-two positions (1, 2, 4, 8, 16, 32) and data bits fill the rest;
  * position 0 holds the overall (even) parity over positions 1..38.

Parity is evaluated word-parallel: each parity bit owns a precomputed mask
of the positions it covers, and the parity of ``codeword & mask`` is one
``int.bit_count()``.  Data bits move between word and codeword as the few
contiguous runs the layout leaves between parity positions.
"""

from __future__ import annotations

CODEWORD_BITS = 39

_PARITY_POSITIONS = (1, 2, 4, 8, 16, 32)
_DATA_POSITIONS = tuple(
    pos for pos in range(1, CODEWORD_BITS) if pos not in _PARITY_POSITIONS
)
assert len(_DATA_POSITIONS) == 32


class EccError(Exception):
    """Raised when a codeword holds an uncorrectable (double-bit) error."""


#: Per parity bit: the mask of the data positions it covers (itself
#: excluded; no other parity position shares a bit with it).
_COVER_MASKS = tuple(
    sum(1 << pos for pos in _DATA_POSITIONS if pos & parity_bit)
    for parity_bit in _PARITY_POSITIONS
)
#: Per parity bit: its cover plus itself; odd parity is a syndrome bit.
_CHECK_MASKS = tuple(
    mask | (1 << parity_bit)
    for mask, parity_bit in zip(_COVER_MASKS, _PARITY_POSITIONS)
)


def _data_runs() -> tuple[tuple[int, int, int], ...]:
    """``(data_shift, codeword_shift, width_mask)`` per run of consecutive
    data positions, in data-bit order."""
    runs = []
    start = 0
    for i in range(1, len(_DATA_POSITIONS) + 1):
        if (
            i == len(_DATA_POSITIONS)
            or _DATA_POSITIONS[i] != _DATA_POSITIONS[i - 1] + 1
        ):
            runs.append((start, _DATA_POSITIONS[start], (1 << (i - start)) - 1))
            start = i
    return tuple(runs)


_DATA_RUNS = _data_runs()


def ecc_encode(data: int) -> int:
    """Encode a 32-bit word into a 39-bit SEC-DED codeword."""
    if not 0 <= data < (1 << 32):
        raise ValueError("ecc_encode expects a 32-bit word")
    codeword = 0
    for data_shift, pos, width in _DATA_RUNS:
        codeword |= ((data >> data_shift) & width) << pos
    for parity_bit, mask in zip(_PARITY_POSITIONS, _COVER_MASKS):
        codeword |= ((codeword & mask).bit_count() & 1) << parity_bit
    # Position 0 is still clear, so this is the parity over 1..38.
    return codeword | (codeword.bit_count() & 1)


def _extract_data(codeword: int) -> int:
    data = 0
    for data_shift, pos, width in _DATA_RUNS:
        data |= ((codeword >> pos) & width) << data_shift
    return data


def ecc_decode(codeword: int) -> tuple[int, bool]:
    """Decode a 39-bit codeword, correcting a single-bit error if present.

    Returns ``(data, corrected)`` where *corrected* says whether a single-bit
    error was repaired.  Raises :class:`EccError` on a double-bit error.
    """
    if not 0 <= codeword < (1 << CODEWORD_BITS):
        raise ValueError("ecc_decode expects a 39-bit codeword")
    syndrome = 0
    for parity_bit, mask in zip(_PARITY_POSITIONS, _CHECK_MASKS):
        if (codeword & mask).bit_count() & 1:
            syndrome |= parity_bit
    # overall == 0 means the stored overall-parity bit matches positions 1..38.
    overall = codeword.bit_count() & 1
    if syndrome == 0:
        if overall == 0:
            return _extract_data(codeword), False
        # Only the overall parity bit itself flipped; data is intact.
        return _extract_data(codeword), True
    if overall == 0:
        # Syndrome set but total parity even: two bits flipped.
        raise EccError(f"double-bit error detected (syndrome={syndrome:#x})")
    if syndrome >= CODEWORD_BITS:
        raise EccError(f"invalid syndrome {syndrome:#x}")
    return _extract_data(codeword ^ (1 << syndrome)), True


def flip_codeword_bit(codeword: int, bit: int) -> int:
    """Flip one bit of a codeword (used by tests and the error injector)."""
    if not 0 <= bit < CODEWORD_BITS:
        raise ValueError(f"bit index {bit} outside {CODEWORD_BITS}-bit codeword")
    return codeword ^ (1 << bit)
