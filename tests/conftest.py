"""One hypothesis profile for the suite: no deadline, since the host's speed
varies; examples derived from each test, so every run draws the same ones;
and no example database, so that no run replays another's failures."""

from hypothesis import settings

settings.register_profile("ropsim", deadline=None, derandomize=True, database=None)
settings.load_profile("ropsim")
