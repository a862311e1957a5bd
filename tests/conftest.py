"""One hypothesis profile for the whole suite: fixed examples, no deadline."""

from hypothesis import settings

settings.register_profile("shiftcal", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("shiftcal")
