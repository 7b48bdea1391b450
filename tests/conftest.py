import pytest

from qcoiso import classical, rootsys


def clear_builds():
    """Empty the per-process memo of root systems, Chevalley bases and
    r-matrices."""
    for builder in (rootsys.build_root_system, classical.build_realization,
                    classical.build_r_matrix):
        builder.cache_clear()


@pytest.fixture
def fresh_builds():
    """Run the test on an empty build memo, and empty it again afterwards:
    a test that patches a builder's internals must build under its patch,
    and what it builds there must never reach a later test.  The test gets
    the function that empties the memo."""
    clear_builds()
    yield clear_builds
    clear_builds()
