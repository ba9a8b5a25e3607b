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


def test_simulate_calls_integrate_through_its_module(tmp_path, monkeypatch):
    # perfbench/run.py reads peak bytes per node by patching
    # siq_model.integrate; if simulate stopped calling that attribute, the
    # counter would read 0 without an error
    from siq import cli, siq_model
    real, calls = siq_model.integrate, []

    def patched(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(siq_model, "integrate", patched)
    assert cli.main(["simulate", "--r", "2.5", "--p", "0.5", "--tau", "0.5",
                     "--kappa", "1", "--i0", "0.01", "--t-end", "2",
                     "--step", "0.01", "--out",
                     str(tmp_path / "run.csv")]) == 0
    assert len(calls) == 1 and calls[0]["r"] == 2.5
