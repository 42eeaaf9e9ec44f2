import pytest

from mapalg.forms import basis_element
from mapalg.pbw import Element


def _assert_reconstructs(result, elem):
    rebuilt = Element.zero(elem.preset)
    for idx, coeff in result.terms:
        rebuilt = rebuilt + coeff * basis_element(elem.preset, idx)
    assert rebuilt == elem


@pytest.fixture
def reconstructs():
    """``reconstructs(result, elem)`` asserts that the terms of a basis
    reduction sum back to the reduced element."""
    return _assert_reconstructs
