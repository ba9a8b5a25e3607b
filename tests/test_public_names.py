"""Every name a ``siq`` module lists in ``__all__`` must resolve on that
module, so a deletion cannot leave a stale entry for ``import *`` to trip
over, and on the package, so the top-level API is the modules' public
names."""

import importlib
import pkgutil

import siq


def _public_modules():
    for info in pkgutil.iter_modules(siq.__path__):
        module = importlib.import_module(f"siq.{info.name}")
        names = getattr(module, "__all__", None)
        if names is not None:
            yield info.name, module, names


def test_every_all_entry_resolves():
    listed = []
    for name, module, names in _public_modules():
        listed.append(name)
        assert len(set(names)) == len(names), name
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, (name, missing)
    assert {"dde_core", "equilibria", "net_sim", "siq_model",
            "spectral"} <= set(listed)


def test_every_all_entry_is_importable_from_the_package():
    for name, module, names in _public_modules():
        missing = [n for n in names
                   if getattr(siq, n, None) is not getattr(module, n)]
        assert not missing, (name, missing)
