"""Shared test settings.

Property tests run under one registered hypothesis profile: examples are
derived from each test's source rather than drawn at random, so every run
checks the same cases; no example database is read or written, so a
failure seen once is not replayed into later runs; and there is no
per-example deadline, so a slow or shared machine cannot make a test fail
on time alone.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("hpnc", derandomize=True, database=None, deadline=None)
    settings.load_profile("hpnc")
