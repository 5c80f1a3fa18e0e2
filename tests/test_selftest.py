"""The fixed thresholds of the self-test checks bite: a fault just over one fails its check.

Each test plants a constant error in the module attribute a check calls, once
just over the check's threshold and once well under it, so the constants are
pinned as well as the logic.
"""

import dataclasses

import pytest

from spinforms import entanglement, flip, selftest
from spinforms.core import PureState


@pytest.mark.parametrize("scale, passed", [(1 + 1e-11, False), (1 + 1e-13, True)])
def test_oracle_equivalence_threshold(monkeypatch, scale, passed):
    kernel = flip.flip_state
    monkeypatch.setattr(flip, "flip_state", lambda psi: PureState(psi.n, kernel(psi).amp * scale))
    assert selftest.check_oracle_equivalence(3, 5, seed=1).passed is passed  # 1e-12


@pytest.mark.parametrize("offset, passed", [(1e-9, False), (1e-11, True)])
def test_golden_values_threshold(monkeypatch, offset, passed):
    kernel = entanglement.tangle
    monkeypatch.setattr(entanglement, "tangle", lambda psi: kernel(psi) + offset)
    assert selftest.check_golden_values(seed=10).passed is passed  # 1e-10


@pytest.mark.parametrize("offset, passed", [(1e-11, False), (1e-14, True)])
def test_form_parity_threshold(monkeypatch, offset, passed):
    # for odd n the exchange doubles a constant offset: form(psi, phi) + c + (form(phi, psi) + c) = 2c
    kernel = flip.bilinear_form

    def shifted(psi, phi):
        result = kernel(psi, phi)
        return dataclasses.replace(result, value=result.value + offset)

    monkeypatch.setattr(flip, "bilinear_form", shifted)
    assert selftest.check_form_parity((3,), 20, seed=2).passed is passed  # 1e-12
