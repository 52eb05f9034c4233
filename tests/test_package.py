"""The package namespace: core and errors names bound at import, every other
public name loaded from its module on first access and never cached."""
import importlib
import json
import subprocess
import sys

import pytest

import qtypicality
from qtypicality import cli, core, errors, graph, typicality

LAZY_NAMES = sorted(qtypicality._MODULE_OF)


def owner(name):
    """The module that defines the public name ``name``."""
    module = qtypicality._MODULE_OF.get(name)
    if module is None:
        return core if hasattr(core, name) else errors
    return importlib.import_module("qtypicality." + module)


@pytest.mark.parametrize("name", qtypicality.__all__)
def test_every_public_name_is_its_modules(name):
    assert getattr(qtypicality, name) is getattr(owner(name), name)


def test_public_names_are_unique_and_include_both_kinds():
    names = qtypicality.__all__
    assert len(set(names)) == len(names)
    assert {"QuantumStructure", "ValidationError", "build_graph", "separation_sweep"} <= set(names)


@pytest.mark.parametrize("name", LAZY_NAMES)
def test_lazy_name_follows_a_patch_and_its_undoing(monkeypatch, name):
    """For one: ``qtypicality.build_graph is graph.build_graph`` holds plainly,
    while a monkeypatch replaces ``graph.build_graph``, and after it is undone."""
    module = owner(name)
    original = getattr(module, name)
    stand_in = object()
    monkeypatch.setattr(module, name, stand_in)
    assert getattr(qtypicality, name) is stand_in
    monkeypatch.undo()
    assert getattr(qtypicality, name) is original
    assert name not in vars(qtypicality)  # read from the module each time


def test_dir_lists_every_public_name_and_submodule():
    listed = set(dir(qtypicality))
    assert set(qtypicality.__all__) <= listed
    assert {"core", "errors", "graph", "scenarios", "stats", "stochastic",
            "typicality", "wavepacket", "__version__"} <= listed


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qtypicality import *", namespace)
    for name in qtypicality.__all__:
        assert namespace[name] is getattr(qtypicality, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'qtypicality' has no attribute 'nope'"):
        qtypicality.nope  # noqa: B018
    assert not hasattr(qtypicality, "nope")
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        exec("from qtypicality import nope", {})


# Prints the package modules loaded after ``import qtypicality`` and after
# reading the public name given as the argument.
READ_ONE_NAME = """
import json, sys
package = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "qtypicality")
import qtypicality
at_import = package()
getattr(qtypicality, sys.argv[1])
print(json.dumps([at_import, package()]))
"""


@pytest.mark.parametrize("name, loaded", [
    ("typical_set_bound", {"stats"}),
    ("correspondence_audit", {"stochastic", "typicality"}),
    ("build_graph", {"graph", "typicality"}),
    ("wavepacket", {"wavepacket", "typicality"}),
    ("SSet", set()),
])
def test_a_name_loads_its_module_on_first_access(src_env, name, loaded):
    done = subprocess.run(
        [sys.executable, "-c", READ_ONE_NAME, name],
        env=src_env, capture_output=True, text=True, check=True,
    )
    at_import, after = json.loads(done.stdout)
    eager = {"qtypicality", "qtypicality.core", "qtypicality.errors"}
    assert set(at_import) == eager
    assert set(after) == eager | {"qtypicality." + m for m in loaded}


class TestThresholdDefaults:
    """The defaults live in core, so the CLI reads them without importing
    graph or typicality; those modules publish the same values."""

    def test_values(self):
        assert core.DEFAULT_THRESHOLD == 0.08  # M <= 0.08 gives m <= 2M
        assert core.DEFAULT_EPSILON_EXCLUDE == 0.01
        assert core.DEFAULT_TAU_LINK == core.DEFAULT_THRESHOLD

    def test_public_names_bind_the_same_values(self):
        assert typicality.DEFAULT_THRESHOLD == core.DEFAULT_THRESHOLD
        assert graph.DEFAULT_EPSILON_EXCLUDE == core.DEFAULT_EPSILON_EXCLUDE
        assert graph.DEFAULT_TAU_LINK == core.DEFAULT_TAU_LINK

    def test_cli_options_default_to_them(self):
        assert cli._THRESHOLD_DEFAULTS == {
            "epsilon_exclude": graph.DEFAULT_EPSILON_EXCLUDE,
            "tau_link": graph.DEFAULT_TAU_LINK,
            "threshold": typicality.DEFAULT_THRESHOLD,
        }
