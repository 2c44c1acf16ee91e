"""The Zipfian sampler of §5.1.

The paper draws window lengths and predicate constants from a Zipfian
distribution "favoring larger windows (i.e., a window of length 1000 is most
likely to be chosen)", default parameter 1.5.  The distribution models the
commonality observed in real large-scale workloads: many queries share the
popular values, which is what common-subexpression elimination and the shared
m-ops exploit (Fig. 9(d)).
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError


class ZipfSampler:
    """Zipf over an integer range with the heaviest mass on the largest value.

    ``ZipfSampler(low, high, parameter)`` samples values in ``[low, high]``;
    rank 1 (probability ∝ 1) is ``high``, rank 2 is ``high - 1``, and so on —
    the paper's "favoring larger" convention.  Set ``favor_large=False`` for
    the classical orientation.
    """

    def __init__(
        self,
        low: int,
        high: int,
        parameter: float = 1.5,
        rng: np.random.Generator | None = None,
        favor_large: bool = True,
    ):
        if high < low:
            raise WorkloadError(f"empty range [{low}, {high}]")
        if parameter <= 0:
            raise WorkloadError(f"Zipf parameter must be positive, got {parameter}")
        self.low = low
        self.high = high
        self.parameter = parameter
        self._rng = rng if rng is not None else np.random.default_rng()
        size = high - low + 1
        ranks = np.arange(1, size + 1, dtype=np.float64)
        weights = ranks ** -parameter
        self._probabilities = weights / weights.sum()
        if favor_large:
            # rank k -> value high - (k - 1)
            self._values = np.arange(high, low - 1, -1, dtype=np.int64)
        else:
            self._values = np.arange(low, high + 1, dtype=np.int64)

    def sample(self, count: int = 1) -> np.ndarray:
        """Draw ``count`` values (numpy int64 array)."""
        return self._rng.choice(self._values, size=count, p=self._probabilities)

    def expected_distinct(self, count: int) -> float:
        """Expected number of distinct values among ``count`` draws.

        Useful for sizing expectations in tests: E[distinct] =
        Σ (1 - (1 - p_i)^count).
        """
        return float(np.sum(1.0 - (1.0 - self._probabilities) ** count))
