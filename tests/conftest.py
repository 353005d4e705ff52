"""Hypothesis profiles: ``ci`` replays the same examples on every run and
prints a reproduction blob for each failure, so a failure seen in a CI log
can be replayed locally with ``@reproduce_failure``. Select it with
``HYPOTHESIS_PROFILE=ci``; without it the default profile applies.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
