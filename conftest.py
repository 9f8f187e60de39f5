"""Session setup for every test directory of this checkout."""

import os


def pytest_report_header(config):
    """Name the lskit that the tests import: pyproject's `pythonpath` puts this
    checkout's src ahead of PYTHONPATH, so another checkout's tests are run
    from that checkout."""
    import lskit

    return f"lskit: {os.path.dirname(lskit.__file__)}"
