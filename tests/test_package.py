import inspect

import spinforms
import spinforms.bases
import spinforms.core
import spinforms.flip


def test_every_exported_name_resolves():
    assert len(set(spinforms.__all__)) == len(spinforms.__all__)
    for name in spinforms.__all__:
        assert getattr(spinforms, name) is not None, name


def test_removed_duplicates_stay_gone():
    # form parity is checked by selftest.check_form_parity, bi-orthonormality by check_biorthonormal
    assert "form_parity_check" not in spinforms.__all__
    assert not hasattr(spinforms, "form_parity_check")
    for module, name in [
        (spinforms.flip, "form_parity_check"),
        (spinforms.flip, "FormParityReport"),
        (spinforms.bases, "gram_pair"),
        (spinforms.bases, "_magic_phases"),  # the reversal sign comes from flip.signed_reversal's tile
        (spinforms.bases, "_UNSCALED_EXP"),  # every Gram residual scales through core._quadratic_residual
        (spinforms.bases, "_scaled"),
        (spinforms.bases, "_nonzero_gram_residuals"),  # the Grams of a sparse basis are summed over its pair blocks
        (spinforms.bases, "_gram_targets"),
        (spinforms.core, "Tolerances"),  # each verdict reads core.NORM_TOL, GRAM_TOL or RESIDUAL_TOL
        (spinforms.core, "DEFAULT_TOL"),
        (spinforms, "Tolerances"),
        (spinforms, "DEFAULT_TOL"),
    ]:
        assert not hasattr(module, name), name
    for name in spinforms.__all__:
        value = getattr(spinforms, name)
        if callable(value):
            assert "tol" not in inspect.signature(value).parameters, name
