"""The package's public names."""

import inspect

import sqitest
from sqitest import fock, hypotests, phase_space


def test_every_export_resolves_once():
    # a deleted class must not leave a stale name in __all__
    names = sqitest.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(sqitest, name)]
    assert missing == []


def test_names_the_benchmark_traces():
    # bench/tracing.py wraps these two kernels by name inside sqitest.fock,
    # and reads si_type2_fock's ``config`` argument by name
    assert callable(fock.eigh) and callable(fock.expm_multiply)
    assert list(inspect.signature(fock.si_type2_fock).parameters) == [
        "theta", "mixture", "alpha", "config"]
    # bench/workloads.py calls si_type2_n2 positionally
    assert list(inspect.signature(hypotests.si_type2_n2).parameters) == [
        "theta_norm", "modes", "mixture", "alpha"]
    # it traces the public functions of each layer, and counts the
    # heterodyne draws and the Monte Carlo replicates by argument name
    for fn in (phase_space.kappa, phase_space.heterodyne_sample):
        assert inspect.isfunction(fn) and fn.__module__ == phase_space.__name__
        assert not fn.__name__.startswith("_")
    assert "count" in inspect.signature(phase_space.heterodyne_sample).parameters
    assert "reps" in inspect.signature(hypotests.hh_type2_montecarlo).parameters
