"""Coefficient rings."""

import pytest

from opengw.ring import ModElement


def test_mod_division_by_foreign_type_is_not_implemented():
    class Reflected:
        def __rtruediv__(self, other):
            return "reflected"

    assert ModElement(3, 7) / Reflected() == "reflected"
    with pytest.raises(TypeError, match="for /: 'ModElement' and 'str'"):
        ModElement(3, 7) / "x"


def test_mod_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ModElement(3, 7) / ModElement(0, 7)
    with pytest.raises(ZeroDivisionError):
        ModElement(3, 7) / 14
    assert ModElement(3, 7) / ModElement(2, 7) == 5
