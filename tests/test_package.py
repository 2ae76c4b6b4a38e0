"""The package root: every public name importable, none of them paid for up front."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import idsweep

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_submodule():
    code = "import json, sys, idsweep; print(json.dumps([m for m in sys.modules if m.startswith('idsweep.')]))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert json.loads(proc.stdout) == []


def test_every_public_name_resolves():
    for name in idsweep.__all__:
        assert getattr(idsweep, name) is not None, name
    assert set(idsweep.__all__) <= set(dir(idsweep))
    namespace: dict = {}
    exec("from idsweep import *", namespace)
    assert set(idsweep.__all__) <= set(namespace)
    assert len(idsweep.__all__) == 40  # 39 names plus __version__


def test_public_names_are_the_submodule_objects():
    from idsweep import pipeline, store

    assert idsweep.run_scan is pipeline.run_scan
    assert idsweep.ResultStore is store.ResultStore


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError):
        idsweep.no_such_name
    with pytest.raises(ImportError):
        exec("from idsweep import no_such_name", {})
