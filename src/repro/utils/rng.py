"""Deterministic random-number plumbing.

Every stochastic component of the library (workload generators, the batch
shuffle optimisation, experiment campaigns) takes an explicit
:class:`numpy.random.Generator`.  Nothing in the library touches the global
numpy RNG state, which keeps experiments reproducible and parallelisable.

The helpers here normalise the many things callers like to pass as a "seed"
(nothing, an int, an existing generator) and derive independent child streams
for parallel runs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "spawn_rngs", "derive_rng"]

#: Library-wide default seed used when the caller wants determinism but does
#: not care about the particular value.
DEFAULT_SEED = 0x5E_ED


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a flexible ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an ``int`` seed, or an existing
        generator (returned unchanged so callers can thread one stream
        through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | np.random.Generator | None, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators.

    Uses :meth:`numpy.random.Generator.spawn`, so children are independent
    regardless of how many are drawn and in which order they are consumed.
    This is what the experiment runner uses to give every one of the 40 runs
    of a campaign its own stream.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators: {n}")
    return make_rng(seed).spawn(n)


def derive_rng(seed: int | None, *keys: int | str) -> np.random.Generator:
    """Return a generator deterministically derived from ``seed`` and ``keys``.

    Unlike :func:`spawn_rngs` this is *stateless*: the same ``(seed, keys)``
    always yields the same stream, independent of any other derivation.  Used
    to key runs by ``(workload, n, replicate)`` so figures can be regenerated
    point-by-point.
    """
    material: list[int] = [DEFAULT_SEED if seed is None else int(seed)]
    for key in keys:
        if isinstance(key, str):
            # Stable, platform-independent folding of the string into ints.
            material.extend(key.encode("utf-8"))
        else:
            material.append(int(key))
    return np.random.default_rng(np.random.SeedSequence(material))
