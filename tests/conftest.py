"""Hypothesis runs without its example database.

With the default database, every run writes the failing and interesting
examples it finds under ``.hypothesis/examples`` and the next run replays
them first, so a verdict could depend on what earlier runs left in the
checkout. No test's example count, deadline or strategy changes here.
"""

from hypothesis import settings

settings.register_profile("no-database", database=None)
settings.load_profile("no-database")
