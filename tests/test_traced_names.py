"""The benchmark tracer wraps public names by ``getattr``: every name it
lists must stay reachable, or a traced run breaks."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    # run_path compiles the file without writing bytecode next to it
    tracer = runpy.run_path(str(TRACER))
    assert tracer["FUNCTIONS"] and tracer["METHODS"]
    for mod_name, attr, _, _ in tracer["FUNCTIONS"]:
        assert callable(getattr(importlib.import_module(mod_name), attr))
    for mod_name, cls_name, attr, _, _ in tracer["METHODS"]:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        # install() patches the class's own attribute, not an inherited one
        assert callable(getattr(cls, attr)) and attr in vars(cls)
