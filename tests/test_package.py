"""The package's public export list."""

import railsim


def test_every_exported_name_resolves():
    missing = [name for name in railsim.__all__ if not hasattr(railsim, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from railsim import *", namespace)
    assert set(railsim.__all__) <= set(namespace)
