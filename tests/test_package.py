"""The package's public names: ``from dualframes import *`` binds each."""

import dualframes


def test_all_names_resolve_once():
    names = dualframes.__all__
    assert len(set(names)) == len(names)
    namespace = {}
    exec("from dualframes import *", namespace)
    assert [name for name in names if name not in namespace] == []
    assert all(namespace[name] is getattr(dualframes, name) for name in names)
