"""The default in-memory operator build scales with nnz, not n².

At the node count used here a single ``n x n`` float array is 28.8 GB,
so a build that allocated one for ``W`` or for the ``R`` fibre sums
would fail outright; the bound below is three orders of magnitude
under that.  The build runs in a forked child whose peak RSS is
compared with that of an idle child forked from the same parent.
"""

import os
import resource

import numpy as np
import pytest

from benchmarks._mem import measure_in_child
from repro.core import build_operators
from repro.core.features import FactoredCosineWalk
from repro.experiments.parallel import fork_available
from repro.hin.graph import HIN
from repro.tensor.sptensor import SparseTensor3

pytestmark = pytest.mark.skipif(
    not fork_available() or not os.path.exists("/proc/self/statm"),
    reason="the RSS probe forks a child and caps it through /proc",
)

N_LINKS = 50_000


def sparse_hin(n_nodes: int, seed: int = 0) -> HIN:
    """Random links and non-negative count features on ``n_nodes`` nodes."""
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, n_nodes, size=(2, N_LINKS))
    k = rng.integers(0, 2, size=N_LINKS)
    tensor = SparseTensor3(i, j, k, np.ones(N_LINKS), shape=(n_nodes, n_nodes, 2))
    features = rng.poisson(0.5, size=(n_nodes, 8)).astype(float)
    labels = np.zeros((n_nodes, 2), dtype=bool)
    labels[np.arange(n_nodes), rng.integers(0, 2, size=n_nodes)] = True
    return HIN(tensor, ["r0", "r1"], features, labels, ["a", "b"])


def capped_build(hin: HIN) -> str:
    """Build under a 4 GiB address-space headroom; returns the W type name.

    The cap makes a quadratic allocation (28.8 GB here) fail fast with
    ``MemoryError`` inside the child instead of pressing on the
    machine's memory, while leaving room for thread stacks and arenas.
    """
    with open("/proc/self/statm", encoding="ascii") as statm:
        virtual = int(statm.read().split()[0]) * resource.getpagesize()
    limit = virtual + 4 * 2**30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return type(build_operators(hin).w_matrix).__name__


def build_growth_mb(hin: HIN) -> float:
    """Peak-RSS growth of one ``build_operators`` call, in MiB."""
    _, idle = measure_in_child(lambda: None)
    kind, peak = measure_in_child(capped_build, hin)
    assert kind == FactoredCosineWalk.__name__
    return (peak - idle) / 2**20


def test_build_rss_grows_with_nnz_not_n_squared():
    small = build_growth_mb(sparse_hin(5_000))
    large = build_growth_mb(sparse_hin(60_000))
    # 60k nodes: n^2 floats are 28.8 GB; the whole build stays tiny.
    assert large < 128.0
    # Twelve times the nodes at the same nnz: growth is O(n), not O(n^2)
    # (the n^2 difference would be 28.6 GB).
    assert large - small < 64.0
