import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_collection_modifyitems(items):
    # the acceptance training pipelines start in the background when their
    # module starts; running the tests that wait on them last lets the rest
    # of the suite overlap the training
    items.sort(key=lambda item: item.get_closest_marker("slow") is not None)
