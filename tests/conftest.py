"""Shared test settings.

Every Hypothesis test prints the ``@reproduce_failure`` line of a failing
example, so a failure found by a random search can be replayed even if a
rerun draws other examples.  Tests keep their own ``max_examples``,
``derandomize`` and ``deadline``.
"""
from hypothesis import settings

settings.register_profile("leosem", print_blob=True)
settings.load_profile("leosem")
