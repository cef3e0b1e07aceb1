"""Counter-derived random streams.

Every source of randomness in a run is a child stream of the run seed,
keyed by a domain tag plus counters (round, client id, ...). Pre-splitting
streams this way keeps a client's draws independent of which clients share
its cohort and of the order in which they train.
"""

from __future__ import annotations

import numpy as np

DOMAIN_INIT = 1
DOMAIN_COHORT = 2
DOMAIN_CLIENT = 3
DOMAIN_DATA = 5
DOMAIN_ABLATION = 6
DOMAIN_BOUND = 7
DOMAIN_BOUND_CHECK = 8


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key...); same key, same stream."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative 64-bit integer, got {seed}")
    return np.random.default_rng(np.random.SeedSequence((seed, *key)))
