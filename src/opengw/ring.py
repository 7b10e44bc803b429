"""Pluggable coefficient rings.

Every count the engine produces lives in a commutative ring with unity.
The default is the field of exact rationals (stdlib Fraction); integers
mod p are available for torsion experiments.  A ring object only needs
to coerce inputs and hand out zero/one; arithmetic happens on the
elements themselves, so Fraction and the GF(p) wrapper below both work.
"""

from __future__ import annotations

from fractions import Fraction


class Rationals:
    """Exact rational numbers, the default coefficient field."""

    name = "QQ"

    def __call__(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, ModElement):
            raise TypeError("cannot coerce a mod-p element into QQ")
        return Fraction(value)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def __repr__(self):
        return "Rationals()"


class ModElement:
    """An element of Z/p, normalized to [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, ModElement):
            if other.p != self.p:
                raise ValueError("mixed moduli %d and %d" % (self.p, other.p))
            return other.value
        if isinstance(other, int):
            return other
        if isinstance(other, Fraction):
            if other.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by %d" % self.p)
            return other.numerator * pow(other.denominator, -1, self.p)
        return NotImplemented

    def __add__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return ModElement(self.value + v, self.p)

    __radd__ = __add__

    def __neg__(self):
        return ModElement(-self.value, self.p)

    def __sub__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return ModElement(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return ModElement(v - self.value, self.p)

    def __mul__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return ModElement(self.value * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        if v % self.p == 0:
            raise ZeroDivisionError("division by zero mod %d" % self.p)
        return ModElement(self.value * pow(v, -1, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, ModElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        if isinstance(other, Fraction):
            return self == ModElement(self._lift(other), self.p)
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return "%d (mod %d)" % (self.value, self.p)


class PrimeField:
    """Integers mod p for a prime p."""

    def __init__(self, p):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError("modulus %r is not prime" % (p,))
        self.p = p
        self.name = "GF(%d)" % p

    def __call__(self, value):
        if isinstance(value, ModElement):
            if value.p != self.p:
                raise ValueError("mixed moduli")
            return value
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by %d" % self.p)
            return ModElement(
                value.numerator * pow(value.denominator, -1, self.p), self.p
            )
        return ModElement(int(value), self.p)

    @property
    def zero(self):
        return ModElement(0, self.p)

    @property
    def one(self):
        return ModElement(1, self.p)

    def __repr__(self):
        return "PrimeField(%d)" % self.p


QQ = Rationals()
