"""The check runner: its verdict in each sense, and its resource bounds."""

import importlib
import json
import math
import pkgutil
import tracemalloc

import numpy as np
import pytest

import spinrep
from spinrep import clifford as cl
from spinrep import grassmann as gr
from spinrep import isomorphisms as iso
from spinrep import transforms as tr
from spinrep.report import FAIL, PASS
from spinrep.suites import CHECKS, SUITE_NAMES, Check, SuiteContext, _run, run_suite

from conftest import NON_DIAGONAL

PER_METRIC_CACHES = (gr._gamma_ops_cached, gr._right_gamma_ops_cached, gr._hodge_matrix_cached,
                     cl._structure_cached, iso._matrix_basis_cached, iso._right_blade_ops_cached,
                     tr._lift_system_cached)


def run_values(values, tol, at_least=False, inputs=None, ctx_tol=None):
    """The result of a synthetic check whose trials yield ``values`` in order."""
    check = Check("synthetic", "check", None, None, tol, lambda ctx, rng, n: iter(values),
                  inputs=inputs, at_least=at_least)
    return _run(check, SuiteContext(gr.minkowski(), tol=ctx_tol))


@pytest.mark.parametrize("at_least, values, status, worst", [
    (False, [1e-3, 5e-3, 2e-3], PASS, 5e-3),
    (False, [1e-3, 0.5, 2e-3], FAIL, 0.5),
    (True, [0.5, 0.1, 0.3], PASS, 0.1),
    (True, [0.5, 1e-3, 0.3], FAIL, 1e-3),
    # both bounds are strict
    (False, [1e-3, 1e-2, 2e-3], FAIL, 1e-2),
    (True, [0.5, 1e-2, 0.3], FAIL, 1e-2),
])
def test_verdict_in_each_sense(at_least, values, status, worst):
    result = run_values(values, 1e-2, at_least)
    assert (result.status, result.residual, result.samples) == (status, worst, 3)
    assert result.detail == ("at least 0.01" if at_least else "tol 0.01")


@pytest.mark.parametrize("values, status, worst", [
    ([0, 0, 0], PASS, 0.0),
    ([0, 1, 0], FAIL, 1.0),
    ([0.0, 1e-300], FAIL, 1e-300),
])
def test_exact_zero_verdict(values, status, worst):
    result = run_values(values, None)
    assert (result.status, result.residual, result.detail) == (status, worst, "exact zero")


@pytest.mark.parametrize("at_least", [False, True])
def test_nan_fails_either_sense(at_least):
    result = run_values([0.5, math.nan, 0.5], 1e-2, at_least)
    assert result.status == FAIL
    assert result.residual is None
    assert result.detail.endswith("non-finite residual")
    assert json.loads(json.dumps(result.to_dict()))["residual"] is None


def test_context_tol_moves_tolerance_not_threshold():
    # an "at most" tolerance follows SuiteContext.tol, both ways
    assert run_values([5e-3], 1e-2, ctx_tol=1e-3).status == FAIL
    assert run_values([5e-2], 1e-2, ctx_tol=1e-1).status == PASS
    # an "at least" threshold is the declaration's, whatever SuiteContext.tol says
    below = run_values([5e-3], 1e-2, at_least=True, ctx_tol=1e-3)
    above = run_values([0.5], 1e-2, at_least=True, ctx_tol=1.0)
    assert (below.status, above.status) == (FAIL, PASS)
    assert below.detail == above.detail == "at least 0.01"


def test_failing_at_least_check_records_smallest_input():
    trials = [(0.5, np.full((2, 2), 1.0)), (1e-4, np.full((2, 2), 2.0)),
              (1e-3, np.full((2, 2), 3.0))]
    result = run_values(trials, 1e-2, at_least=True, inputs="A")
    assert (result.status, result.residual) == (FAIL, 1e-4)
    assert result.inputs == {"A": [[2.0, 2.0], [2.0, 2.0]]}
    assert run_values(trials[:1], 1e-2, at_least=True, inputs="A").inputs is None


def test_check_keys_and_names_are_unique():
    # a repeated key would give two checks one random stream
    keys = [c.key for c in CHECKS if c.key is not None]
    names = [(c.suite, c.name) for c in CHECKS]
    assert len(set(keys)) == len(keys)
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_memory_stays_bounded(name):
    # the checks stack their samples in bounded batches, whatever the sample
    # count.  The caches start empty, so their fills count too.
    for cache in PER_METRIC_CACHES:
        cache.cache_clear()
    tracemalloc.start()
    try:
        run_suite(name, SuiteContext(gr.minkowski()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_a_run_builds_each_per_metric_value_once():
    # every check judges the context's metric and basis, so a full run misses
    # each cache once, on them
    for cache in PER_METRIC_CACHES:
        cache.cache_clear()
    ctx = SuiteContext(gr.Metric(NON_DIAGONAL))
    for name in SUITE_NAMES:
        run_suite(name, ctx)
    assert {cache.__name__: cache.cache_info().misses for cache in PER_METRIC_CACHES} == \
        {cache.__name__: 1 for cache in PER_METRIC_CACHES}


def test_per_metric_caches_are_every_cache():
    # a cache missing from the list would start the memory test above warm
    found = set()
    for info in pkgutil.iter_modules(spinrep.__path__):
        module = importlib.import_module(f"spinrep.{info.name}")
        found |= {id(obj) for obj in vars(module).values() if hasattr(obj, "cache_info")}
    assert found == {id(cache) for cache in PER_METRIC_CACHES}


def test_per_metric_caches_return_read_only_arrays():
    g = gr.Metric(NON_DIAGONAL)
    basis = iso.dirac_matrices(g)
    for cache in PER_METRIC_CACHES:
        value = cache(basis if cache in (iso._matrix_basis_cached, tr._lift_system_cached) else g)
        for array in value if isinstance(value, tuple) else (value,):
            assert not array.flags.writeable, cache.__name__
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = array[(0,) * array.ndim]


def test_alternating_lifts_add_no_miss(rng):
    # two metrics, as a stream of lifts on two fixed metrics alternates
    bases = [iso.dirac_matrices(gr.minkowski()), iso.dirac_matrices(gr.Metric(NON_DIAGONAL))]
    for basis in bases:
        tr.spin_lift(np.eye(4), basis)
    caches = (tr._lift_system_cached, iso._matrix_basis_cached)
    before = [cache.cache_info().misses for cache in caches]
    for _ in range(5):
        for basis in bases:
            tr.spin_lift(tr.random_lorentz(rng, basis.metric), basis)
    assert [cache.cache_info().misses for cache in caches] == before


def test_every_suite_reads_one_dirac_basis(monkeypatch):
    built = []
    dirac_matrices = iso.dirac_matrices

    def counted(g):
        built.append(g)
        return dirac_matrices(g)

    monkeypatch.setattr(iso, "dirac_matrices", counted)
    ctx = SuiteContext(gr.Metric(NON_DIAGONAL), samples=3)
    for name in SUITE_NAMES:
        run_suite(name, ctx)
    assert sum(g == ctx.metric for g in built) == 1
