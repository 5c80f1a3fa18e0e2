import dataclasses

import pytest

import spinforms.bases
from spinforms.bases import BasisSet
from spinforms.files import read_basis, write_basis


@pytest.fixture
def unmarked_copies(tmp_path):
    """Bases with the matrix of a given basis that do not come from magic_basis/product_biortho_basis."""

    def copies(basis):
        path = tmp_path / "basis.json"
        write_basis(path, basis)
        return {
            "file": read_basis(path),
            "matrix": BasisSet(basis.n, basis.matrix()),
            "replace": dataclasses.replace(basis),
        }

    return copies


@pytest.fixture
def refuse_gram(monkeypatch):
    """A call that makes every later bi-orthonormality Gram check raise AssertionError("Gram check").

    It replaces _gram_residuals, which both routes of check_biorthonormal (pairs and dense) go through.
    """

    def gram_check(v, n):
        raise AssertionError("Gram check")

    return lambda: monkeypatch.setattr(spinforms.bases, "_gram_residuals", gram_check)
