import difftf


def test_every_exported_name_resolves_once():
    assert len(set(difftf.__all__)) == len(difftf.__all__)
    for name in difftf.__all__:
        assert getattr(difftf, name) is not None, name
