"""One BLAS thread unless the environment sets another count: the suite runs
faster pinned on small hosts, and solver traces are bit-reproducible only
single-threaded. Set before anything imports numpy.

Hypothesis profiles: under CI (the ``CI`` environment variable set) the
``ci`` profile draws the same examples on every run, so a property test
cannot pass on one push and fail on the next without a code change."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
