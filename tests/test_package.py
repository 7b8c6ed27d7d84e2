import qscramble


def test_every_export_resolves():
    assert len(set(qscramble.__all__)) == len(qscramble.__all__)
    missing = [name for name in qscramble.__all__
               if not hasattr(qscramble, name)]
    assert not missing
