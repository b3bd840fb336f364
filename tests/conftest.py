"""What the session knows of itself: how many tests a whole tier-1 run collected."""

from pathlib import Path

import pytest

_COLLECTED = pytest.StashKey[object]()
_DESELECTED = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_DESELECTED] = 0


def pytest_deselected(items):
    if items:
        items[0].config.stash[_DESELECTED] += len(items)


def pytest_collection_finish(session):
    """Keep the number of collected tests if the run is the whole suite, else None.

    A run is whole when its arguments are the configured testpaths and
    nothing was deselected (-k, -m, --deselect, --lf) or ignored.
    """
    config = session.config
    here = config.invocation_params.dir
    given = sorted(Path(here, arg).resolve() for arg in config.args)
    whole = sorted(Path(config.rootpath, path).resolve() for path in config.getini("testpaths"))
    unfiltered = not (
        config.stash[_DESELECTED] or config.getoption("ignore") or config.getoption("ignore_glob")
    )
    config.stash[_COLLECTED] = len(session.items) if given == whole and unfiltered else None


@pytest.fixture
def whole_run_count(request):
    """The number of tests this run collected if it is the whole suite, else None."""
    return request.config.stash.get(_COLLECTED, None)
