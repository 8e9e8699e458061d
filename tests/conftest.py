import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from hyperspectra.graphs import all_connected_graphs
from hyperspectra.verify import full_corpus, quick_corpus

# the default run is deterministic and leaves no example database behind;
# no deadline, since a brute-force oracle's time varies with the host
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def pytest_configure(config):
    # even without a database, Hypothesis caches the constants it reads from
    # the source under its home directory; keep that inside pytest's cache
    if hasattr(config, "cache"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


@pytest.fixture(scope="session")
def small_corpus():
    """All connected graphs on at most 4 vertices, up to isomorphism."""
    graphs = []
    for n in range(1, 5):
        graphs.extend(all_connected_graphs(n))
    return graphs


@pytest.fixture(scope="session")
def desk_corpus():
    """All connected graphs on at most 5 vertices, up to isomorphism."""
    return full_corpus()


@pytest.fixture(scope="session")
def builtin_corpus():
    """K2, P3, P4, C3, C4, C5, K4 minus an edge, K4."""
    return quick_corpus()
