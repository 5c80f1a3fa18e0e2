import inspect

import spinforms
import spinforms.bases
import spinforms.core
import spinforms.entanglement
import spinforms.flip
import spinforms.groups


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
        # a basis is judged by the group defect of its canonical coefficients, and the canonical basis is its transform
        (spinforms.bases, "signed_reversal"),
        (spinforms.bases, "_form_gram"),
        # the flip defect is taken in flip._flip_defects alone, and every Gram target goes through a diagonal view
        (spinforms.entanglement, "_TILE_BITS"),
        (spinforms.entanglement, "_signed_blocks"),
        (spinforms.entanglement, "i_power"),
        (spinforms.bases, "_TILE_BITS"),
        (spinforms.bases, "times_i_power"),
        (spinforms.core, "_value_eq"),  # the frozen values share core._FrozenValue's copy, equality and dim
        (spinforms.core, "Tolerances"),  # each verdict reads core.NORM_TOL, GRAM_TOL or RESIDUAL_TOL
        (spinforms.core, "DEFAULT_TOL"),
        (spinforms, "Tolerances"),
        (spinforms, "DEFAULT_TOL"),
    ]:
        assert not hasattr(module, name), name
    for value_type in (spinforms.PureState, spinforms.GlobalOperator, spinforms.LocalOperatorList, spinforms.BasisSet):
        assert issubclass(value_type, spinforms.core._FrozenValue), value_type
        own = vars(value_type)
        assert "__eq__" not in own and "dim" not in own, value_type
        assert ("__reduce__" in own) == (value_type is spinforms.BasisSet), value_type  # its canonical branch
    assert "np.linalg.det" not in inspect.getsource(spinforms.groups)  # every determinant comes from groups._det
    assert "canonical_j(" not in inspect.getsource(spinforms.bases.random_unitary_symplectic)  # J as a signed swap
    for name in spinforms.__all__:
        value = getattr(spinforms, name)
        if callable(value):
            assert "tol" not in inspect.signature(value).parameters, name
