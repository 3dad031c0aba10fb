"""The package's export list matches what it binds."""

import types

import halfdepth


def test_all_lists_every_public_name_the_package_binds():
    bound = {
        name for name, value in vars(halfdepth).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(halfdepth.__all__) == sorted(bound)
    assert len(set(halfdepth.__all__)) == len(halfdepth.__all__)
    for name in halfdepth.__all__:
        assert getattr(halfdepth, name) is not None
