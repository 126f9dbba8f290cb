"""Hypothesis profiles for the property tests.

tier1, the default, is derandomized, so every run of the suite sees the same
25 examples a test.  large draws 500 fresh examples a test for a longer
search:  pytest tests/test_properties.py --hypothesis-profile=large
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          max_examples=25)
settings.register_profile("large", database=None, deadline=None, max_examples=500)
settings.load_profile("tier1")
