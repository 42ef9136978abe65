"""The layer harness's row lists against this tree, without timing anything:
each ``sweeps`` row names a callable of the package (or of the harness) and
carries its plan's case count (the harness's own rows, which have no plan,
are run for theirs), and the ``cli`` table runs the benchmark's
own command lines.  A row that drifted from the code it times would make the
harness refuse at its check phase, long after the change that broke it."""

import importlib
import importlib.util
import random
import sys
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"


@pytest.fixture(scope="module")
def harness():
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("bench_layers", HARNESS)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_layers"] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules["bench_layers"]
        sys.path[:] = saved


def test_sweep_rows_name_callables_with_their_plans_case_counts(harness):
    planned, own = [], []
    for module, name, args, cases, _ in harness.SWEEPS:
        owner = harness if module == harness.__name__ else importlib.import_module(module)
        assert callable(getattr(owner, name, None)), (module, name)
        plan = getattr(owner, name.removesuffix("_sweep") + "_plan", None) if name.endswith("_sweep") else None
        if plan is not None:
            assert plan(*args)[0] == cases, (name, args)
            planned.append((name, args, cases))
        elif owner is harness:
            own.append((name, args, cases))
    assert ("tomita_sweep", (3, 2), 172549) in planned
    assert ("cocycle_sweep", (3, 1), 4112) in planned
    assert len(planned) == 13  # all but sf_closed_form_chunk and the harness's three
    assert [name for name, _, _ in own] == ["cocycle_five_term", "psi_pairs", "flow_reports"]
    for name, args, cases in own:  # no plan: each is run for its count (0.2 s in all)
        assert getattr(harness, name)(*args) == {"cases": cases, "failures": 0}, name


def test_cli_rows_run_the_benchmark_argvs(harness):
    assert harness.CLI_ARGVS == harness.workloads.cli_argvs(random.Random(30))
    rows = harness.cli_rows(str(HARNESS.parents[1] / "src"))  # builds the calls, starts no child
    assert [key["verb"] for key, _, _ in rows] == ["floor"] + [verb for verb, _ in harness.CLI_ARGVS]


@pytest.mark.parametrize("table", ["sweeps", "equality", "cli"])
def test_a_repeated_side_name_exits_2(harness, table, capsys):
    with pytest.raises(SystemExit) as caught:
        harness.main([table, "--side", "a=src", "--side", "a=other/src"])
    assert caught.value.code == 2
    assert "no two sides share a NAME" in capsys.readouterr().err


def test_speedup_is_the_median_of_per_round_ratios(harness):
    # Calls come in two speeds, 10 and 20 ms, and in round 2 the machine
    # switched between the two sides' samples: each side's median lands in
    # another mode (20 against 10), while every other round reads 1.0.
    base = [10.0, 10.0, 20.0, 20.0, 20.0]
    times = [10.0, 10.0, 10.0, 20.0, 20.0]
    assert harness.summary(times, base) == {
        "ms": 10.0, "min_ms": 10.0, "max_ms": 20.0, "speedup": 1.0, "faster_rounds": 1}
    assert harness.summary(base, base) == {"ms": 20.0, "min_ms": 10.0, "max_ms": 20.0}
