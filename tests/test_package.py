"""The package's public namespace: every exported name exists."""

import gridlabel


def test_every_name_in_all_resolves():
    missing = [name for name in gridlabel.__all__ if not hasattr(gridlabel, name)]
    assert missing == []
    assert len(set(gridlabel.__all__)) == len(gridlabel.__all__)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from gridlabel import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(gridlabel.__all__)
