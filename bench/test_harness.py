"""Self-test of the benchmark harness (a few seconds).

    python3 -m pytest -q bench/test_harness.py

Checks the independent references against values worked out by hand, runs
every workload once at a tiny size with its checks, and runs one traced
round to see that the per-layer metrics come out.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_hh_reference_at_the_null():
    # F(2, 1) has cdf 1 - (1 + 2c)^(-1/2): the 0.95 quantile is c = 199.5.
    for r in ref.PRESET_SQUEEZE.values():
        assert ref.hh_beta(0.0, r, 0.0, 3, 0.05) == pytest.approx(0.95, abs=1e-12)
    # r = 1, n = 3: (theta, N) = (1, 0) and (sqrt 2, 1) both give lambda = 6.
    assert ref.hh_beta(1.0, 1.0, 0.0, 3, 0.05) == pytest.approx(
        ref.hh_beta(np.sqrt(2.0), 1.0, 1.0, 3, 0.05), rel=1e-12)


def test_si_closed_forms():
    # (1 - alpha)(1 - e^{-6}) / 6 at z = 3 theta^2 = 3.
    assert ref.si_beta_pure_n3(1.0, 0.05) == pytest.approx(0.15794086423869449, rel=1e-14)
    assert ref.si_beta_pure_n3(0.0, 0.05) == 0.95
    # (1 - alpha) e^{-1} I_0(1) at 2 theta^2 = 1.
    assert ref.si_beta_pure_n2(math.sqrt(0.5), 0.05) == pytest.approx(
        0.44247162721395836, rel=1e-14)


def test_lattice_law_by_fft():
    # N = 1, theta = 0: difference of two geometric(1/2) laws, P(k) = 2^-|k| / 3.
    ys, pmf = ref.count_difference_pmf(1, 0.0, 1.0)
    for k, want in ((0, 1 / 3), (1, 1 / 6), (-2, 1 / 12)):
        assert pmf[ys == k][0] == pytest.approx(want, abs=1e-15)
    # N = 0, theta = 1: Skellam(1, 1), P(0) = e^{-2} I_0(2).
    ys, pmf = ref.count_difference_pmf(1, 1.0, 0.0)
    assert pmf[ys == 0][0] == pytest.approx(0.308508322553671, abs=1e-14)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-14)
    # Pure null is a point mass at 0, so beta = (1 - alpha) P(Y = 0).
    assert ref.si_beta_n2(math.sqrt(0.5), 1, 0.0, 0.05) == pytest.approx(
        0.44247162721395836, rel=1e-12)
    assert ref.si_beta_n2(0.0, 2, 1.0, 0.05) == pytest.approx(0.95, abs=1e-12)


def test_binomial_band_covers_the_mean():
    lo, hi = ref.binomial_band(0.5, 10_000, 9)
    assert 0.45 < lo < 0.5 < hi < 0.55
    assert ref.binomial_band(0.0, 1000, 1) == (0.0, 0.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_tiny_round(name, tmp_path):
    workload = workloads.WORKLOADS[name](3, tmp_path, tiny=True)
    for _ in range(2):  # the second round exercises the byte-identical rerun check
        _, outputs, failures = run.run_round(workload)
        assert workload.check(outputs) == []
    # The only operation expected to fail is the n = 2 CLI call.
    assert [f.split(":")[0] for f in failures] == (["curve"] if name == "lattice-n2" else [])


def test_traced_round_reports_every_layer_metric(tmp_path):
    workload = workloads.curve_tail(3, tmp_path, tiny=True)
    tracer = tracing.Tracer()
    with tracer.installed():
        run.run_round(workload)
    metrics, spans = tracer.take_round()
    layers = tracing.per_layer([metrics], overhead_s=0.0)
    assert list(layers) == [name for name, _, _ in tracing.PER_LAYER]
    # 9 grid points x 3 presets, one critical-point solve each, all alike.
    assert layers["hypotests.hh_type2_analytic.calls"]["value"] == 27
    assert layers["hypotests.si_type2_closed.calls"]["value"] == 9
    assert layers["distributions.critical_point.distinct_ratio"]["value"] == 1 / 27
    assert layers["cli.main.total_s"]["value"] > layers["experiments.run_curve.self_s"]["value"]
    assert all(end >= start for _, start, end, _, _ in spans)
    # Uninstalling restores the untraced functions.
    assert not hasattr(workloads.cli.main, "__wrapped__")


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)
