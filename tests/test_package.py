"""The package's public namespace is exactly ``kickback.__all__``."""

import types

import kickback


def test_all_names_every_public_export():
    public = {
        name
        for name, value in vars(kickback).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(kickback.__all__)) == len(kickback.__all__)
    assert set(kickback.__all__) == public
