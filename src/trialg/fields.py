"""Exact ground fields: arbitrary-precision rationals and prime fields.

Scalars are plain Python values (``fractions.Fraction`` over the rationals,
``int`` residues in ``[0, p)`` over a prime field).  A field descriptor
supplies coercion, parsing, and canonical formatting; the package computes
on int rows, so no descriptor carries arithmetic.  Every matrix, subspace,
and algebra in this package carries exactly one descriptor, and mixing
descriptors raises :class:`FieldMismatchError`.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

__all__ = [
    "Field",
    "RationalField",
    "PrimeField",
    "QQ",
    "GF",
    "parse_field",
    "FieldMismatchError",
    "check_same_field",
]

_SCALAR_RE = re.compile(r"^[+-]?\d+(/[+-]?\d+)?$")

# Seeded random scalars over Q are the integers -3..3, drawn uniformly.
_RANDOM_BOUND = 3


def _echo(value, limit: int = 12) -> str:
    """``value`` as an error message quotes it, cut to a short prefix so that
    hostile input gives a short message: a string as the repr of its longest
    prefix that prints as at most ``limit`` characters between the quotes,
    anything else as the first ``limit`` characters of its repr, then
    ``...`` when cut."""
    if isinstance(value, str):
        cut = value[:limit]
        while len(repr(cut)) > limit + 2:  # an escape prints as up to 10 characters
            cut = cut[:-1]
        return repr(cut) + ("..." if len(cut) < len(value) else "")
    text = repr(value)
    return text[:limit] + ("..." if len(text) > limit else "")


class FieldMismatchError(ValueError):
    """Values with different ground-field descriptors were combined."""


def check_same_field(a: "Field", b: "Field") -> None:
    if a != b:
        raise FieldMismatchError(f"field mismatch: {a.name} vs {b.name}")


class Field:
    """Base descriptor. Concrete fields implement the coercion hooks."""

    name = "?"

    def parse(self, text: str):
        """Parse an integer or ``p/q`` fraction string into a scalar.  Past
        CPython's digit limit the error names the limit, not how to raise it."""
        text = text.strip()
        if not _SCALAR_RE.match(text):
            raise ValueError(f"not an exact scalar string: {_echo(text)}")
        try:
            ints = [int(x) for x in text.split("/")]
        except ValueError:  # the text is digits, so only the limit can fail
            raise ValueError(f"integer exceeds the limit of {sys.get_int_max_str_digits()} digits") from None
        return self.from_quotient(*ints) if len(ints) == 2 else self.coerce(ints[0])

    # hooks
    def coerce(self, value):
        raise NotImplementedError

    def from_quotient(self, num: int, den: int):
        raise NotImplementedError

    def to_str(self, value) -> str:
        return str(value)

    def __repr__(self):
        return f"<field {self.name}>"


class RationalField(Field):
    """The rationals; scalars are reduced ``Fraction`` values."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return self.parse(value)
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def from_quotient(self, num, den):
        if den == 0:
            raise ValueError("zero denominator")
        return Fraction(num, den)

    def random_scalar(self, rng):
        return Fraction(rng.randint(-_RANDOM_BOUND, _RANDOM_BOUND))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    """Integers mod a prime; scalars are ints reduced to ``[0, p)``."""

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"modulus must be a prime >= 2, got {_echo(p)}")
        if p >= _PRIME_LIMIT:
            raise ValueError(f"modulus {_echo(p)} is too large: must be below {_PRIME_LIMIT}")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"Fp:{p}"
        self.zero = 0
        self.one = 1 % p

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, Fraction):
            return self.from_quotient(value.numerator, value.denominator)
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def from_quotient(self, num, den):
        d = den % self.p
        if d == 0:
            raise ValueError(f"denominator {den} is 0 mod {self.p}")
        return (num % self.p) * pow(d, self.p - 2, self.p) % self.p

    def random_scalar(self, rng):
        return rng.randrange(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# for every n below _PRIME_LIMIT (Sorenson & Webster 2015, psi_13).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality test, exact for ``n < _PRIME_LIMIT``."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


QQ = RationalField()
GF = PrimeField


def parse_field(name: str) -> Field:
    """Parse a field tag: ``"Q"`` or ``"Fp:<prime>"``."""
    if not isinstance(name, str):
        raise ValueError(f"field tag must be a string, got {_echo(name)}")
    name = name.strip()
    if name == "Q":
        return QQ
    if name.startswith("Fp:"):
        try:
            p = int(name[3:])
        except ValueError:
            raise ValueError(f"bad prime-field tag: {_echo(name)}") from None
        return PrimeField(p)
    raise ValueError(f"unknown field tag: {_echo(name)} (expected 'Q' or 'Fp:<prime>')")
