import votefuse


def test_star_import_binds_every_export():
    ns = {}
    exec("from votefuse import *", ns)
    assert votefuse.__all__ == sorted(votefuse._EXPORTS)
    for name in votefuse.__all__:
        assert ns[name] is getattr(votefuse, name)
