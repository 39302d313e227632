"""Hypothesis profiles: under CI (the ``CI`` environment variable set) the
``ci`` profile draws the same examples on every run, so a property test
cannot pass on one push and fail on the next without a code change."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
