"""Hypothesis profiles.  ``--hypothesis-profile=ci`` deepens the property
tests that leave ``max_examples`` to the profile."""

from hypothesis import settings

settings.register_profile("ci", max_examples=500, deadline=None)
