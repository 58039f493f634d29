import ropsim


def test_every_export_resolves_once():
    missing = [name for name in ropsim.__all__ if not hasattr(ropsim, name)]
    assert missing == []
    assert len(set(ropsim.__all__)) == len(ropsim.__all__)
