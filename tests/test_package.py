import spinforms
import spinforms.bases
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
    ]:
        assert not hasattr(module, name), name
