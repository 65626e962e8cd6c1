from fractions import Fraction

import pytest

from trialg.fields import GF, QQ, _is_prime, parse_field


def test_rational_parse_and_format():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse("-2") == Fraction(-2)
    assert QQ.parse("4/-6") == Fraction(-2, 3)
    assert QQ.to_str(Fraction(-2, 3)) == "-2/3"
    assert QQ.to_str(Fraction(5)) == "5"


def test_rational_rejects_decimals_and_garbage():
    for bad in ("1.5", "a", "1/0x", "", "1//2"):
        with pytest.raises(ValueError):
            QQ.parse(bad)
    with pytest.raises(ValueError):
        QQ.parse("1/0")


def test_prime_field_arithmetic():
    f7 = GF(7)
    assert f7.coerce(-1) == 6
    assert f7.parse("3/4") == 3 * pow(4, 5, 7) % 7
    with pytest.raises(ValueError):
        f7.parse("1/7")


def test_modulus_must_be_prime():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


def test_parse_field_tags():
    assert parse_field("Q") == QQ
    assert parse_field("Fp:5") == GF(5)
    for bad in ("R", "Fp:abc", "Fp:9"):
        with pytest.raises(ValueError):
            parse_field(bad)


def test_primality_matches_trial_division_and_known_values():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(5000) if _is_prime(n)] == [n for n in range(5000) if trial(n)]
    # Carmichael numbers, and the least strong pseudoprimes to the first 4, 9
    # and 12 prime bases.
    for composite in (561, 41041, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(composite)
    for prime in (998244353, 10**9 + 7, 2**31 - 1, 2**61 - 1):
        assert _is_prime(prime)
    assert not _is_prime(2**67 - 1)  # 193707721 * 761838257287


def test_huge_prime_modulus_rejected_fast():
    # 2^127 - 1 is prime but beyond the range where primality is decided exactly.
    with pytest.raises(ValueError, match="too large"):
        parse_field("Fp:170141183460469231731687303715884105727")
    assert GF(2**61 - 1).p == 2**61 - 1
    # The least strong pseudoprime to all 13 bases is the first modulus refused.
    with pytest.raises(ValueError, match="too large"):
        GF(3317044064679887385961981)
