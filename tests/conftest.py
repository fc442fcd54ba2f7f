"""Shared pytest configuration.

``--hypothesis-profile=ci`` makes every property test draw the same
examples on every run, so a failure seen in CI reproduces locally, and
prints the blob that replays a failing example.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
