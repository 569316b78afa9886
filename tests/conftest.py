"""Shared pytest set-up.

The ``ci`` Hypothesis profile draws examples from a fixed seed and keeps no
example database, so a property that fails in CI fails the same way on a
rerun. Select it with ``--hypothesis-profile=ci``.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
