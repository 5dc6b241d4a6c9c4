"""The check runner's resource bounds: every suite runs in bounded memory."""

import tracemalloc

import pytest

from spinrep import clifford as cl
from spinrep import grassmann as gr
from spinrep import isomorphisms as iso
from spinrep.suites import SUITE_NAMES, SuiteContext, run_suite

PER_METRIC_CACHES = (gr._gamma_ops_cached, gr._right_gamma_ops_cached, gr._hodge_matrix_cached,
                     cl._structure_cached, iso._matrix_basis_cached, iso._right_blade_ops_cached)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_memory_stays_bounded(name):
    # the per-metric checks stack their metrics in bounded batches; stacking
    # all 100 metrics of clifford.product_associativity at once peaks at
    # 11 MB.  The caches start empty, so their fills count too.
    for cache in PER_METRIC_CACHES:
        cache.cache_clear()
    tracemalloc.start()
    try:
        run_suite(name, SuiteContext(gr.minkowski()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
