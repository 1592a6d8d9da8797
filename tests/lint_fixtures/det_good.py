"""Known-good determinism corpus: nothing here may be flagged."""

import random
import zlib

import numpy as np


def seeded_generator(seed: int):
    return np.random.default_rng(seed)


def threaded_generator(rng: np.random.Generator):
    return rng.random(4)


def seeded_stdlib_instance(seed: int):
    return random.Random(seed)


def instance_draws(rng: random.Random):
    # Draws on an owned, seeded instance are fine — only the module-level
    # global-state functions are banned.
    return rng.random()


def pragma_allowed_profiling():
    import time

    # Reviewed exception: profiling only, never read back by algorithms.
    return time.perf_counter()  # lint: allow[det-wallclock]


def seed_from_stable_digest(tag: str):
    return np.random.default_rng(zlib.crc32(tag.encode("utf-8")))


class Key:
    def __init__(self, name: str):
        self.name = name

    def __hash__(self):
        # In-process only: the salted value never seeds or persists anything.
        return hash(self.name)
