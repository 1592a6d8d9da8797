"""Known-bad determinism corpus: every block here must be flagged."""

import random
import time

import numpy as np


def unseeded_generator():
    rng = np.random.default_rng()  # det-unseeded-rng
    return rng.random(4)


def bare_unseeded_generator():
    from numpy.random import default_rng

    return default_rng()  # det-unseeded-rng


def global_numpy_state():
    np.random.seed(7)  # det-global-random-state
    return np.random.randint(0, 10)  # det-global-random-state


def stdlib_module_functions():
    value = random.random()  # det-stdlib-random
    random.shuffle([1, 2, 3])  # det-stdlib-random
    return value


def unseeded_stdlib_instance():
    return random.Random()  # det-stdlib-random


def wallclock_in_algorithm():
    return time.perf_counter()  # det-wallclock


def seed_from_builtin_hash(tag):
    return np.random.default_rng(abs(hash(tag)) % (2**32))  # det-builtin-hash
