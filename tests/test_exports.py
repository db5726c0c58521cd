"""The package's public names: every entry of ``__all__`` resolves, so a
star-import succeeds and brings exactly those names."""

import beamstops


def test_every_exported_name_resolves_and_star_import_works():
    missing = [name for name in beamstops.__all__ if not hasattr(beamstops, name)]
    assert missing == []
    assert len(set(beamstops.__all__)) == len(beamstops.__all__)
    namespace = {}
    exec("from beamstops import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(beamstops.__all__)
