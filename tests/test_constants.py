"""The package's physical constants against scipy's CODATA values."""

import pytest

from raqr import constants

NAMES = ["epsilon_0", "hbar", "Boltzmann", "elementary_charge", "speed_of_light"]


@pytest.mark.parametrize("name", NAMES)
def test_equals_scipy_bit_for_bit(name):
    import scipy.constants

    assert getattr(constants, name) == getattr(scipy.constants, name)


def test_defines_each_constant_once():
    public = sorted(n for n in vars(constants) if not n.startswith("_"))
    assert public == sorted(NAMES)
