from types import ModuleType

import youngwalls


def test_all_names_every_public_binding():
    public = {
        name for name, value in vars(youngwalls).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(youngwalls.__all__) == len(set(youngwalls.__all__))
    assert set(youngwalls.__all__) == public
