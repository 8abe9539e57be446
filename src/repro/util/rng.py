"""Deterministic random-number streams.

Every stochastic component in the simulation draws from a *named* child
stream of a single master seed.  This keeps runs bit-for-bit reproducible
while letting independent components (publisher generation, user browsing,
network loss, ...) consume randomness without perturbing each other:
adding draws to one stream never changes the values another stream yields.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from itertools import accumulate
from typing import Sequence


class RngFactory:
    """Factory of independent, named ``random.Random`` streams.

    >>> factory = RngFactory(seed=2016)
    >>> a = factory.stream("publishers")
    >>> b = factory.stream("users")
    >>> a is factory.stream("publishers")
    True
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for *name*, creating it on first use."""
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]


def zipf_weights(n: int, exponent: float = 1.0) -> list[float]:
    """Unnormalised Zipf weights ``1/rank**exponent`` for ranks 1..n.

    Used to model publisher popularity: rank-1 sites attract vastly more
    pageviews than the long tail.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]


class CumulativeSampler:
    """Repeated weighted sampling with O(log n) draws.

    Precomputes the cumulative weight table once; much faster than
    ``random.Random.choices`` when the same distribution is sampled
    millions of times (pageview generation does exactly that).
    """

    def __init__(self, weights: Sequence[float]) -> None:
        if not weights:
            raise ValueError("weights must be non-empty")
        total = 0.0
        for weight in weights:
            if weight < 0:
                raise ValueError("weights must be non-negative")
            total += weight
        if total <= 0:
            raise ValueError("total weight must be positive")
        cumulative = list(accumulate(weight / total for weight in weights))
        # Guard against floating point drift on the last bucket.
        cumulative[-1] = 1.0
        self._cumulative = tuple(cumulative)

    def __len__(self) -> int:
        return len(self._cumulative)

    @property
    def cumulative(self) -> tuple[float, ...]:
        """Normalised cumulative weights (``sample`` bisects them)."""
        return self._cumulative

    def sample(self, rng: random.Random) -> int:
        """Return an index drawn with probability proportional to weight."""
        return bisect.bisect_left(self._cumulative, rng.random())
