"""Pytest root configuration.

Makes the ``repro`` package importable straight from the source tree so the
test and benchmark suites run even when the package has not been installed
(e.g. on machines without the ``wheel`` package, where ``pip install -e .``
cannot build editable metadata; ``python setup.py develop`` also works).
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: The persistence paths a developer's shell may export (README's quick-start
#: does).  With them set, every default-constructed harness and server in the
#: suites would warm-start from — and merge-save into — the developer's own
#: files.  The fault plan (``STUBBY_FAULT_*``) is deliberately not listed: the
#: nightly CI sets it around pytest on purpose.
AMBIENT_PATH_VARIABLES = (
    "STUBBY_COST_CACHE",
    "STUBBY_DECISION_CACHE",
    "STUBBY_SUBRESULT_CATALOG",
)


def pytest_configure(config):
    # Once per session, before collection; a test that needs one of these
    # sets it through ``monkeypatch.setenv``.
    for variable in AMBIENT_PATH_VARIABLES:
        os.environ.pop(variable, None)
    config.addinivalue_line(
        "markers",
        "equivalence: differential-execution equivalence sweeps (select with "
        "`-m equivalence`; scale the random-workflow count with the "
        "EQUIVALENCE_SEEDS environment variable)",
    )
