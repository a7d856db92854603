"""Shared pytest set-up.

Property tests run under a derandomized Hypothesis profile, so every run
draws the same examples and a tier-1 result does not depend on luck.
Derandomizing also turns off the example database.
"""

from hypothesis import settings

settings.register_profile("tropfit", derandomize=True)
settings.load_profile("tropfit")
