"""Every exported name must resolve, so a deleted function cannot leave a
dangling entry in ``toricreg.__all__``."""

import toricreg


def test_all_names_resolve_once():
    names = toricreg.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(toricreg, name), name


def test_star_import():
    namespace = {}
    exec("from toricreg import *", namespace)
    assert set(toricreg.__all__) <= set(namespace)
