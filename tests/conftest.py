"""Suite-wide Hypothesis policy.

No wall-clock deadline: the suite's clock is simulated, and a property
whose body is quadratic in a drawn size (the entry-lookup scans) runs
past Hypothesis's default 200 ms whenever the host is busy. A test
still sets ``max_examples`` or health checks where it needs to; the
deadline it inherits from here.
"""

from hypothesis import settings

settings.register_profile("repro", deadline=None)
settings.load_profile("repro")
