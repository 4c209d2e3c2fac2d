"""Confidence intervals for steady-state simulation measurements.

Single long runs of a cycle simulator produce autocorrelated samples, so
naive standard errors are optimistic.  Two standard remedies are provided:

* **batch means** — split one long sample stream into contiguous batches,
  treat batch averages as (approximately) independent observations, and
  build a t-interval over them;
* **independent replications** — run the experiment under different seeds
  and build the t-interval over replication results (``replicate``).
"""

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric t-based confidence interval."""

    mean: float
    half_width: float
    confidence: float
    observations: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """Whether ``value`` falls inside the interval."""
        return self.low <= value <= self.high

    @property
    def relative_half_width(self) -> float:
        """Half-width as a fraction of the mean (inf for a zero mean)."""
        if self.mean == 0:
            return float("inf")
        return abs(self.half_width / self.mean)


def t_interval(
    observations: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval over independent observations.

    Raises:
        ValueError: With fewer than two observations or a confidence
            outside (0, 1).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    n = len(observations)
    if n < 2:
        raise ValueError("need at least two observations")
    # Imported here, not at module level: scipy.stats costs over a
    # second to import and nothing else in the package needs it.
    from scipy import stats as scipy_stats

    mean = sum(observations) / n
    variance = sum((x - mean) ** 2 for x in observations) / (n - 1)
    critical = float(scipy_stats.t.ppf((1 + confidence) / 2, df=n - 1))
    half_width = critical * math.sqrt(variance / n)
    return ConfidenceInterval(
        mean=mean, half_width=half_width,
        confidence=confidence, observations=n,
    )


def batch_means(
    samples: Sequence[float],
    num_batches: int = 10,
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """Batch-means confidence interval over one long sample stream.

    The stream is split into ``num_batches`` contiguous, equally sized
    batches (trailing remainder dropped); batch averages feed
    :func:`t_interval`.

    Raises:
        ValueError: If the stream cannot fill the requested batches.
    """
    if num_batches < 2:
        raise ValueError("need at least two batches")
    batch_size = len(samples) // num_batches
    if batch_size < 1:
        raise ValueError(
            f"{len(samples)} samples cannot fill {num_batches} batches"
        )
    batches: List[float] = []
    for index in range(num_batches):
        chunk = samples[index * batch_size:(index + 1) * batch_size]
        batches.append(sum(chunk) / len(chunk))
    return t_interval(batches, confidence)


def replicate(
    experiment: Callable[[int], float],
    num_replications: int = 5,
    confidence: float = 0.95,
    base_seed: int = 0,
    workers: int = 1,
) -> ConfidenceInterval:
    """Confidence interval from independent replications.

    Args:
        experiment: Maps a seed to one scalar measurement (e.g. a
            saturation-throughput run).  Must be picklable (a
            module-level function) for ``workers > 1`` to actually
            parallelise.
        num_replications: Independent runs, seeded ``base_seed + i``.
        workers: Processes to spread replications over.  Results are
            identical to the serial path for any value; see
            :mod:`repro.harness.parallel`.
    """
    from repro.harness.parallel import _execute_tasks

    tasks = [
        (_SeedOnly(experiment), {}, base_seed + index)
        for index in range(num_replications)
    ]
    return t_interval(_execute_tasks(tasks, workers), confidence)


class _SeedOnly:
    """Adapts a seed-only experiment to the keyword task convention.

    A module-level class (rather than a closure) so instances pickle into
    worker processes whenever the wrapped experiment itself pickles.
    """

    def __init__(self, experiment: Callable[[int], float]) -> None:
        self.experiment = experiment

    def __call__(self, seed: int) -> float:
        return float(self.experiment(seed))
