"""Stochastic noise model for simulated durations.

The paper's measurements are taken on real clusters where operating-system
jitter and interference from other jobs perturb every timing; ADCL's
statistical filtering and the occasional "suboptimal decision" (§IV-A)
only exist because of that noise.  This module reproduces it with a
seeded, reproducible model:

* **Gaussian jitter** — every duration is multiplied by
  ``1 + N(0, sigma)`` (truncated so durations stay positive).
* **Heavy-tail outliers** — with probability ``outlier_prob`` a duration
  is additionally multiplied by a factor drawn uniformly from
  ``[outlier_lo, outlier_hi]``, modelling an OS daemon or page fault
  stealing the core mid-measurement.

A ``sigma`` of 0 and ``outlier_prob`` of 0 gives a perfectly
deterministic simulation, which the unit tests rely on.  Such a model
never draws, so it creates no :class:`numpy.random.Generator` (a
noise-free P=1024 world would otherwise build 1,026 of them) and does
not import numpy at all: this module imports it only when a perturbing
model is built, so a noise-free process never loads it.  The seeds
:meth:`NoiseModel.spawn` and :meth:`NoiseModel.jitter_only` derive do
not depend on that, so a noisy model draws the same values either way.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NoiseModel", "NullNoise"]

#: stream constants separating the derived-seed families: without them a
#: rank's compute-noise stream (``spawn``) and the network-jitter stream
#: (``jitter_only``) derived from the same offset would be the *same*
#: RNG sequence, silently correlating compute noise with link jitter
_COMPUTE_STREAM = 0
_JITTER_STREAM = 1


@dataclass
class NoiseModel:
    """Seeded multiplicative-noise generator.

    Parameters
    ----------
    sigma:
        Relative standard deviation of the Gaussian jitter.
    outlier_prob:
        Per-sample probability of a heavy-tail outlier.
    outlier_lo, outlier_hi:
        Uniform range of the outlier multiplier.
    seed:
        Seed for the underlying :class:`numpy.random.Generator`, which
        only a model that perturbs (``sigma > 0`` or
        ``outlier_prob > 0``) creates.
    """

    sigma: float = 0.0
    outlier_prob: float = 0.0
    outlier_lo: float = 2.0
    outlier_hi: float = 8.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if not 0.0 <= self.outlier_prob <= 1.0:
            raise ValueError("outlier_prob must be in [0, 1]")
        if self.outlier_lo > self.outlier_hi:
            raise ValueError("outlier_lo must be <= outlier_hi")
        # hot-path flag: perturb() runs once per simulated duration
        self._deterministic = self.sigma == 0.0 and self.outlier_prob == 0.0
        if self._deterministic:
            return
        import numpy as np

        self._rng = np.random.default_rng(self.seed)
        # bound methods, bypassing two attribute lookups per draw.
        # standard_normal()*sigma is bit-identical to normal(0, sigma)
        # (the latter computes loc + scale*standard_normal internally)
        # and skips the loc/scale argument processing.
        self._standard_normal = self._rng.standard_normal
        self._random = self._rng.random
        self._uniform = self._rng.uniform

    @property
    def deterministic(self) -> bool:
        """True when this model never perturbs a duration."""
        return self._deterministic

    def perturb(self, duration: float) -> float:
        """Return ``duration`` with jitter (and possibly an outlier) applied.

        Negative results are clamped at 10% of the nominal duration so a
        wild jitter draw can never produce a non-positive time.
        """
        if self._deterministic or duration <= 0.0:
            return duration
        factor = 1.0
        sigma = self.sigma
        if sigma > 0.0:
            factor += self._standard_normal() * sigma
        outlier_prob = self.outlier_prob
        if outlier_prob > 0.0 and self._random() < outlier_prob:
            factor *= self._uniform(self.outlier_lo, self.outlier_hi)
        if factor < 0.1:
            factor = 0.1
        return duration * factor

    def _derive_seed(self, offset: int, stream: int) -> int:
        """Distinct seed per (offset, stream family) pair."""
        return (self.seed * 1_000_003 + offset) * 2 + stream

    def spawn(self, offset: int) -> "NoiseModel":
        """Derive an independent compute-noise stream (e.g. one per rank)."""
        return NoiseModel(
            sigma=self.sigma,
            outlier_prob=self.outlier_prob,
            outlier_lo=self.outlier_lo,
            outlier_hi=self.outlier_hi,
            seed=self._derive_seed(offset, _COMPUTE_STREAM),
        )

    def jitter_only(self, offset: int) -> "NoiseModel":
        """Derive a stream with the Gaussian jitter but no outliers.

        Used for network-side perturbation: OS interference (the
        heavy-tail component) steals *CPU* time; link serialization
        only sees small physical jitter.  The derived seed lives in a
        different stream family from :meth:`spawn`, so ``spawn(k)`` and
        ``jitter_only(k)`` never alias the same RNG sequence.
        """
        return NoiseModel(
            sigma=self.sigma,
            outlier_prob=0.0,
            seed=self._derive_seed(offset, _JITTER_STREAM),
        )


def NullNoise() -> NoiseModel:
    """A noise model that leaves every duration untouched."""
    return NoiseModel(sigma=0.0, outlier_prob=0.0)
