import qmultitest


def test_every_exported_name_resolves():
    missing = [name for name in qmultitest.__all__ if not hasattr(qmultitest, name)]
    assert not missing
    assert len(set(qmultitest.__all__)) == len(qmultitest.__all__)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from qmultitest import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(qmultitest.__all__)
