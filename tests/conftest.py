"""Test-suite settings: one Hypothesis profile, derandomized and bounded.

Each property test draws the same examples on every run, so the suite stays
deterministic and its running time fixed.
"""

from hypothesis import settings

settings.register_profile(
    "lowk", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("lowk")
