"""The benchmark's own tests.  From the repository root:

    python3 -m pytest -q exactbench/tests
"""

import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from functools import partial

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import calibrate  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def _mixes(make, seed, rounds=3):
    rng = random.Random(seed)
    return [Counter(op.shape for op in make(rng)) for _ in range(rounds)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_shape_mix_does_not_depend_on_seed(name):
    workload = workloads.WORKLOADS[name]
    for make in (workload.round, workload.trace_round):
        first = _mixes(make, 1)
        assert first == _mixes(make, 2)
        assert all(mix == first[0] for mix in first)


def test_seed_changes_the_inputs():
    def words(seed):
        return [op.call.args for op in workloads.sf_round(random.Random(seed))]

    assert words(1) == words(1)
    assert words(1) != words(2)


def test_sf_round_is_stratified_by_class_size():
    counts = workloads.SF_ROUND_COUNTS
    assert len(counts) == 36 and min(counts.values()) == 1
    share_n4 = sum(c for (n, _, _), c in counts.items() if n == 4) / sum(counts.values())
    assert 0.84 < share_n4 < 0.88


def test_wrong_reference_counts_as_failure():
    n, mu, nu = 4, (1, 2, 3, 4), (2, 3, 1)
    call = partial(workloads._sf_call, n, mu, nu)
    good = workloads.Op((n, 4, 3), call, partial(workloads._sf_check, n, mu, nu))
    wrong = workloads.Op((n, 4, 3), call, lambda sf: workloads._sf_check(n, mu, nu, sf + 1))

    def boom():
        raise RuntimeError("op failed")

    raising = workloads.Op((n, 4, 3), boom, partial(workloads._sf_check, n, mu, nu))
    result = workloads.run_round([good, wrong, raising], clock=lambda: 0.0)
    assert (result.cases, result.failed, len(result.op_seconds)) == (1, 2, 3)
    result.op_seconds = [0.001, 0.001, 0.001]
    summary = stats.summarise([result], 500)
    assert summary["attempted"] == 3 and summary["failed"] == 2
    assert summary["success_rate"] == pytest.approx(1 / 3)


def test_wrong_cli_reference_counts_as_failure():
    argv = ["check", "kms", "--n", "2", "--max-len", "1"]
    good = '{"check":"kms","n":2,"max_len":1,"cases":81,"failures":0,"first_failures":[]}\n'
    assert workloads.cli_check(argv, (0, good)) == 1
    assert workloads.cli_check(argv, (0, good.replace('"cases":81', '"cases":80'))) is None
    assert workloads.cli_check(argv, (1, good)) is None
    op = workloads.Op(("check",), lambda: (0, "not json"), partial(workloads.cli_check, argv))
    assert workloads.run_round([op], clock=lambda: 0.0).failed == 1


@pytest.mark.parametrize(
    "n, permille, value, beyond, enough",
    [
        (10_000, 990, 9899, 100, True),
        (1000, 990, 989, 10, True),
        (999, 990, 989, 9, False),
        (100, 900, 89, 10, True),
        (99, 750, 74, 24, True),
        (20, 500, 9, 10, True),
        (15, 500, 7, 7, False),
        (1, 500, 0, 0, False),
    ],
)
def test_tail_rule(n, permille, value, beyond, enough):
    samples = list(range(n))
    random.Random(n).shuffle(samples)
    t = stats.tail(samples, permille)
    assert (t.percentile, t.value, t.beyond, t.samples, t.enough) == (permille / 10, value, beyond, n, enough)


def test_calibration_interpolates_between_marks(monkeypatch):
    monkeypatch.setattr(calibrate, "SMOOTH_S", 0.0)
    nominal = calibrate.NOMINAL_KERNEL_S
    cal = calibrate.Calibration()
    cal.times, cal.readings = [0.0, 1.0], [nominal, 2 * nominal]
    assert cal.gauge_at(-1.0) == nominal
    assert cal.gauge_at(0.5) == pytest.approx(1.5 * nominal)
    assert cal.gauge_at(2.0) == 2 * nominal
    # an op centred where the machine runs at half speed counts half
    assert cal.nominal(0.9, 0.2) == pytest.approx(0.1)
    assert cal.median_nominal([(0.9, 0.2), (0.9, 0.2), (-1.0, 0.2)]) == pytest.approx(0.1)
    rounds = [stats.RoundResult([0.9, 0.9], [0.2, 0.2], 10, 0).nominal(cal)]
    assert stats.summarise(rounds, 500)["ops_per_s"] == pytest.approx(10 / 0.2)
    assert cal.factor() == pytest.approx(2 / 3)


def test_calibration_smoothing_drops_a_single_outlier():
    nominal = calibrate.NOMINAL_KERNEL_S
    cal = calibrate.Calibration()
    cal.times = [0.0, 1.0, 2.0, 3.0, 4.0]
    cal.readings = [nominal, nominal, 10 * nominal, nominal, nominal]
    assert cal.gauge_at(2.0) == nominal


def test_parse_importtime_takes_outermost_entries():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     scipy._lib",
            "import time:       200 |        300 |   scipy",
            "import time:        50 |         50 |   scipy.integrate",
            "import time:       400 |        750 | cuntzmod.numerics",
            "import time:        10 |         10 | other",
        ]
    )
    got = layers.parse_importtime(stderr, ("cuntzmod.numerics", "scipy"))
    assert got == {"cuntzmod.numerics": 0.75, "scipy": 0.35}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_for_one_seed(name):
    workload = workloads.WORKLOADS[name]
    first, failed, _ = layers.traced_sample(workload, 7)
    second, _, _ = layers.traced_sample(workload, 7)
    assert failed == 0
    assert layers.trace_counts(first) == layers.trace_counts(second)
    assert first.span_count > first.ops


def test_tracer_restores_the_package():
    import cuntzmod.algebra as algebra
    import cuntzmod.scalars as scalars

    before = (algebra.multiply, scalars.QSqrt.__dict__["__mul__"])
    layers.traced_sample(workloads.WORKLOADS["equality"], 1)
    assert (algebra.multiply, scalars.QSqrt.__dict__["__mul__"]) == before


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "exactbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "exactbench/run.py", "--workload", "sf_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
