"""The package loads lazily: a bare ``import cuntzmod`` imports no
submodule, each CLI verb imports only the modules it runs, and no process
loads ``dataclasses``, ``numpy`` or ``inspect`` (whose import costs about
5 ms, so the sweep runner reads parameter names from the code object).
Module sets are read in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cuntzmod

SRC = str(Path(cuntzmod.__file__).resolve().parents[1])

PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is not None:
    from cuntzmod import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
else:
    import cuntzmod
    code = None
print(json.dumps({
    "code": code,
    "package": sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("cuntzmod.")),
    "dataclasses": "dataclasses" in sys.modules,
    "numpy": "numpy" in sys.modules,
    "inspect": "inspect" in sys.modules,
}))
"""


def _loaded(argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)], capture_output=True, text=True, check=True, env=env
    ).stdout
    return json.loads(out)


EXACT_FLOW = {"algebra", "cli", "errors", "flow", "matrices", "modular", "scalars", "tally"}

VERB_MODULES = [
    (["eval", "--n", "2", "S[1]'.S[1]"], {"algebra", "cli", "errors", "expr", "scalars"}),
    (["check", "kms", "--n", "2", "--max-len", "1"], {"algebra", "cli", "errors", "modular", "scalars", "tally"}),
    (["dixmier", "--n", "2", "--s-list", "1.5,1.2", "--cutoff", "1000"], {"cli", "errors", "numerics"}),
    (["sf", "--n", "2", "--mu", "1,1", "--nu", "2"], EXACT_FLOW),
    (["entropy", "--n", "2", "--mu", "1,1", "--nu", "2"], EXACT_FLOW),
    (["aps", "--n", "2", "--mu", "1,1", "--nu", "2"], EXACT_FLOW | {"endos"}),
    (
        ["sfint", "--n", "2", "--mu", "1,1", "--nu", "2", "--r", "0.5", "--cutoff", "1000"],
        {"algebra", "cli", "errors", "numerics", "scalars"},
    ),
]


# What each verb must never pull in, whatever else it comes to need.
NEVER = {
    "eval": {"flow", "matrices", "endos", "modular", "numerics"},
    "check": {"matrices", "flow", "expr", "numerics"},
    "dixmier": {"algebra", "scalars"},
    "sf": {"endos"},
    "entropy": {"endos"},
    "sfint": {"flow", "matrices", "modular", "endos"},
}


@pytest.mark.parametrize("argv, expected", VERB_MODULES, ids=[argv[0] for argv, _ in VERB_MODULES])
def test_each_verb_loads_only_its_modules(argv, expected):
    got = _loaded(argv)
    assert got["code"] == 0
    assert set(got["package"]) == expected
    assert not set(got["package"]) & NEVER.get(argv[0], set())
    assert not got["dataclasses"]
    assert not got["numpy"]
    assert not got["inspect"]


def test_bare_import_loads_no_submodule():
    got = _loaded(None)
    assert got["package"] == [] and not got["dataclasses"] and not got["numpy"] and not got["inspect"]


def test_every_public_name_is_its_home_binding():
    for name in cuntzmod.__all__:
        value = getattr(cuntzmod, name)
        assert vars(cuntzmod)[name] is value  # cached after the first access
        if name in cuntzmod._SUBMODULES:
            assert value is sys.modules[f"cuntzmod.{name}"]
        else:
            assert value is getattr(getattr(cuntzmod, cuntzmod._HOME[name]), name)
    assert set(cuntzmod.__all__) <= set(dir(cuntzmod))
    assert len(set(cuntzmod.__all__)) == len(cuntzmod.__all__)


def test_star_import_and_unknown_name():
    scope = {}
    exec("from cuntzmod import *", scope)
    assert scope["psi_product"] is cuntzmod.modular.psi_product
    assert scope["numerics"] is cuntzmod.numerics
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        cuntzmod.nope
