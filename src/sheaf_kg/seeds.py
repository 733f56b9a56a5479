"""Named, reproducible random sub-streams.

Every source of randomness in the package derives from a single user seed
through a named sub-stream, so that e.g. adding one more negative sample
per batch cannot perturb parameter initialization.
"""

import numpy as np

from .errors import ConfigError, as_id

_STREAM_IDS = {
    "init": 1,
    "shuffle": 2,
    "negatives": 3,
    "synth": 4,
    "queries": 5,
}


def substream(seed: int, name: str) -> np.random.Generator:
    """Return a generator for the named sub-stream of ``seed``.

    The same (seed, name) pair always yields an identical stream; distinct
    names yield statistically independent streams. A seed that is not an
    integer >= 0 is a ``ConfigError``, and an unknown name a ``KeyError``.
    """
    if as_id(seed, ConfigError, "seed must be an integer") < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    key = _STREAM_IDS[name]  # the package names every stream by a literal
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
