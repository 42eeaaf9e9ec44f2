import contextlib

import pytest

from mapalg import forms
from mapalg.pbw import Element


def _assert_reconstructs(result, elem):
    rebuilt = Element.zero(elem.preset)
    for idx, coeff in result.terms:
        # through the module, so that a patched basis_element is the one read
        rebuilt = rebuilt + coeff * forms.basis_element(elem.preset, idx)
    assert rebuilt == elem


@pytest.fixture
def reconstructs():
    """``reconstructs(result, elem)`` asserts that the terms of a basis
    reduction sum back to the reduced element."""
    return _assert_reconstructs


@pytest.fixture
def corrupted_basis(monkeypatch):
    """``with corrupted_basis(idx, elem):`` runs its body with
    ``forms.basis_element`` returning ``elem`` for ``idx`` (and the true
    element elsewhere), starting from an empty reduction-step table of its
    preset; every table is emptied when it ends."""

    @contextlib.contextmanager
    def corrupt(idx, elem):
        real = forms.basis_element
        elem.preset._steps.clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(
                    forms,
                    "basis_element",
                    lambda preset, i: elem if (preset, i) == (elem.preset, idx) else real(preset, i),
                )
                yield
        finally:
            forms.clear_caches()

    return corrupt
