"""Every ramat module exports only names it defines."""

import importlib
import pkgutil

import ramat


def test_all_names_exist_and_star_import_works():
    names = ["ramat"] + [
        f"ramat.{info.name}" for info in pkgutil.iter_modules(ramat.__path__)
    ]
    assert "ramat.intlin" in names and "ramat.cli" in names
    for name in names:
        mod = importlib.import_module(name)
        exported = getattr(mod, "__all__", [])
        assert [n for n in exported if not hasattr(mod, n)] == [], name
        ns = {}
        exec(f"from {name} import *", ns)
        assert set(exported) <= set(ns), name
