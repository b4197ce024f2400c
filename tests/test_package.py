"""The package namespace: every exported name resolves, on first use, to the
object its submodule defines."""

import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mmlab


def test_every_export_is_its_submodules_object():
    for module, names in mmlab._EXPORTS.items():
        owner = importlib.import_module(f"mmlab.{module}")
        for name in names:
            assert getattr(mmlab, name) is getattr(owner, name), name


def test_star_import_binds_every_export():
    scope = {}
    exec("from mmlab import *", scope)
    assert set(mmlab.__all__) <= set(scope)
    assert scope["obs_distance"] is mmlab.observable.obs_distance


def test_unknown_names_raise_and_dir_lists_the_exports():
    with pytest.raises(AttributeError, match="module 'mmlab' has no attribute 'no_such_name'"):
        mmlab.no_such_name
    assert set(mmlab.__all__) | set(mmlab._EXPORTS) | {"__version__"} <= set(dir(mmlab))


def test_a_fresh_process_resolves_names_and_submodules_on_first_use():
    code = ("import json, sys\n"
            "import mmlab\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'mmlab')\n"
            "steps = [loaded()]\n"
            "mmlab.dynamics.fixed_points\n"  # with no import mmlab.dynamics
            "steps.append(loaded())\n"
            "assert mmlab.emd is sys.modules['mmlab.transport'].emd\n"
            "assert 'emd' in vars(mmlab)\n"
            "steps.append(loaded())\n"
            "print(json.dumps(steps))\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    bare, dynamics, transport = json.loads(r.stdout)
    assert bare == ["mmlab"]
    # dynamics imports generators and spaces
    assert dynamics == ["mmlab", "mmlab.dynamics", "mmlab.generators", "mmlab.spaces"]
    assert transport == dynamics + ["mmlab.transport"]


def test_the_numpy_floor_has_bitwise_count():
    # the hamming kernel counts bits with np.bitwise_count, new in NumPy 2.0
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=([0-9.]+)"', text).group(1)
    assert tuple(map(int, floor.split("."))) >= (2, 0)
