import multiprocessing

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run the long training experiments (Table-1 reproduction etc.)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="training experiment; run with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(autouse=True)
def no_leftover_workers():
    """No test may leave a worker process behind, pools included."""
    yield
    assert multiprocessing.active_children() == []
