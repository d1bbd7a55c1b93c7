"""Deterministic seed derivation.

Every source of randomness in the package is a pure function of a master
seed plus a structural key (iteration index, trial index, problem name, ...),
so traces are reproducible regardless of call order or parallel scheduling.

Some streams belong to one run, and the run draws from them in iteration
order. ``rsdfo`` and ``rsdfo2`` draw one sketch per iteration from
``derive_rng(seed, "sketch")``, so the k-th draw is still a function of
(seed, key, k) alone. ``rsdfoq`` draws the directions it adds after the
initial set from ``derive_rng(seed, "add")``, only in iterations that add
points and one direction per point, so a draw also depends on how many
points the run added before it; the run stays a pure function of its seed.
"""

import zlib

import numpy as np


def _key_to_ints(key) -> tuple:
    out = []
    for part in key:
        if isinstance(part, (int, np.integer)):
            out.append(int(part) & 0xFFFFFFFF)
        else:
            out.append(zlib.crc32(str(part).encode("utf-8")))
    return tuple(out)


def derive_seed(master: int, *key) -> int:
    """Stable integer seed derived from (master, key...)."""
    seq = np.random.SeedSequence(entropy=int(master), spawn_key=_key_to_ints(key))
    return int(seq.generate_state(1, np.uint64)[0])


def derive_rng(master: int, *key) -> np.random.Generator:
    """Fresh Generator seeded from (master, key...)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(master), spawn_key=_key_to_ints(key))
    )
