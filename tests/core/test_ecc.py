"""Tests for the SEC-DED ECC (Section 5 of the paper, DESIGN.md invariant 3)."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ecc import (
    CODEWORD_BITS,
    EccError,
    ecc_decode,
    ecc_encode,
    flip_codeword_bit,
)
from repro.core.header import END_OF_COMPUTATION
from tests.core import _ecc_reference as reference

data_words = st.integers(min_value=0, max_value=(1 << 32) - 1)
bit_positions = st.integers(min_value=0, max_value=CODEWORD_BITS - 1)


class TestEncode:
    def test_codeword_width(self):
        assert ecc_encode(0xFFFFFFFF) < (1 << CODEWORD_BITS)

    def test_rejects_oversized_data(self):
        with pytest.raises(ValueError):
            ecc_encode(1 << 32)
        with pytest.raises(ValueError):
            ecc_encode(-1)

    def test_distinct_data_distinct_codewords(self):
        assert ecc_encode(1) != ecc_encode(2)

    @given(data_words)
    def test_roundtrip_clean(self, data):
        decoded, corrected = ecc_decode(ecc_encode(data))
        assert decoded == data
        assert corrected is False


class TestSingleBitCorrection:
    @given(data_words, bit_positions)
    def test_any_single_flip_corrected(self, data, bit):
        corrupted = flip_codeword_bit(ecc_encode(data), bit)
        decoded, corrected = ecc_decode(corrupted)
        assert decoded == data
        assert corrected is True

    def test_all_39_positions_for_one_word(self):
        codeword = ecc_encode(0xA5A5A5A5)
        for bit in range(CODEWORD_BITS):
            decoded, corrected = ecc_decode(flip_codeword_bit(codeword, bit))
            assert decoded == 0xA5A5A5A5
            assert corrected


class TestDoubleBitDetection:
    @given(
        data_words,
        st.tuples(bit_positions, bit_positions).filter(lambda t: t[0] != t[1]),
    )
    def test_any_double_flip_detected(self, data, bits):
        corrupted = ecc_encode(data)
        for bit in bits:
            corrupted = flip_codeword_bit(corrupted, bit)
        with pytest.raises(EccError):
            ecc_decode(corrupted)


class TestValidation:
    def test_decode_rejects_oversized(self):
        with pytest.raises(ValueError):
            ecc_decode(1 << CODEWORD_BITS)

    def test_flip_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            flip_codeword_bit(0, CODEWORD_BITS)


def _outcome(decode, codeword):
    """What *decode* does with *codeword*: its result or its EccError text."""
    try:
        return decode(codeword)
    except EccError as exc:
        return ("EccError", str(exc))


_rng = random.Random(2015)
#: 0, all-ones, the end-of-computation frame id and 200 seeded random words.
ORACLE_WORDS = [0, 0xFFFFFFFF, END_OF_COMPUTATION] + [
    _rng.getrandbits(32) for _ in range(200)
]


class TestAgainstBitLoopReference:
    """The masked-popcount codec equals the original bit-loop codec."""

    def test_encode_matches(self):
        for data in ORACLE_WORDS:
            assert ecc_encode(data) == reference.ecc_encode(data)

    def test_every_single_and_double_flip_matches(self):
        for data in ORACLE_WORDS:
            codeword = ecc_encode(data)
            for bit in range(CODEWORD_BITS):
                once = codeword ^ (1 << bit)
                assert _outcome(ecc_decode, once) == _outcome(
                    reference.ecc_decode, once
                )
                for other in range(bit + 1, CODEWORD_BITS):
                    twice = once ^ (1 << other)
                    got = _outcome(ecc_decode, twice)
                    assert got == _outcome(reference.ecc_decode, twice)
                    assert got[0] == "EccError"

    @given(st.integers(min_value=0, max_value=(1 << CODEWORD_BITS) - 1))
    def test_arbitrary_codewords_match(self, codeword):
        assert _outcome(ecc_decode, codeword) == _outcome(
            reference.ecc_decode, codeword
        )

    @given(data_words)
    def test_arbitrary_words_encode_alike(self, data):
        assert ecc_encode(data) == reference.ecc_encode(data)
