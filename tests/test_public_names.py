"""Every name a ``siq`` module lists in ``__all__`` must resolve on that
module, so a deletion cannot leave a stale entry for ``import *`` to trip
over."""

import importlib
import pkgutil

import siq


def test_every_all_entry_resolves():
    listed = []
    for info in pkgutil.iter_modules(siq.__path__):
        module = importlib.import_module(f"siq.{info.name}")
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        listed.append(info.name)
        assert len(set(names)) == len(names), info.name
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, (info.name, missing)
    assert {"equilibria", "net_sim", "siq_model", "spectral"} <= set(listed)
