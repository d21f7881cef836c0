"""Empirical distributions.

The paper's percentile-based threshold heuristic works directly on the
empirical distribution of per-bin feature counts observed on a host (or a
group of hosts).  :class:`EmpiricalDistribution` is the central object: it
stores the samples, exposes percentiles, the ECDF, exceedance probabilities
(used for false-positive/false-negative computations) and supports pooling
distributions across hosts (used by the homogeneous and partial-diversity
policies).

:class:`DistributionBlock` holds a whole population's per-host distributions
as one row-sorted ``(hosts, bins)`` array, so per-host percentiles are one
vectorised pass (:func:`tail_percentiles`) instead of one call per host.
Both classes compute percentiles through :func:`tail_percentiles`, which
reproduces ``np.percentile``'s default ``linear`` method bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.utils.validation import ValidationError, require, require_probability


def ecdf(samples: Sequence[float], value: float) -> float:
    """Return the empirical CDF ``P(X <= value)`` of ``samples`` at ``value``."""
    data = np.asarray(samples, dtype=float)
    require(data.size > 0, "ecdf requires at least one sample")
    return float(np.count_nonzero(data <= value)) / data.size


def percentile_of_score(samples: Sequence[float], score: float) -> float:
    """Return the percentile rank (0-100) of ``score`` within ``samples``."""
    return 100.0 * ecdf(samples, score)


class EmpiricalDistribution:
    """An empirical distribution built from observed samples.

    Parameters
    ----------
    samples:
        Observed values (per-bin feature counts).  May be empty only if
        ``allow_empty`` is true, in which case every query raises until
        samples are added.
    bin_width:
        Optional provenance: the bin width (seconds) the per-bin counts were
        measured over.  Counts observed over different bin widths are not
        comparable, so pooling distributions with conflicting known widths is
        rejected (see :meth:`pooled`).  ``None`` means "unknown" and is
        compatible with everything.
    """

    def __init__(
        self,
        samples: Optional[Iterable[float]] = None,
        allow_empty: bool = True,
        bin_width: Optional[float] = None,
    ) -> None:
        values = _as_samples(samples)
        if not allow_empty and values.size == 0:
            raise ValidationError("EmpiricalDistribution requires at least one sample")
        if bin_width is not None:
            require(bin_width > 0.0, "bin_width must be positive")
        self._sorted = np.sort(values)
        self._bin_width = None if bin_width is None else float(bin_width)

    @classmethod
    def _of_sorted(
        cls, sorted_samples: np.ndarray, bin_width: Optional[float]
    ) -> "EmpiricalDistribution":
        """Wrap already sorted, validated samples without copying them."""
        distribution = cls.__new__(cls)
        distribution._sorted = sorted_samples
        distribution._bin_width = bin_width
        return distribution

    # ------------------------------------------------------------------ basic
    def __len__(self) -> int:
        return int(self._sorted.size)

    @property
    def is_empty(self) -> bool:
        """True when the distribution contains no samples."""
        return self._sorted.size == 0

    @property
    def samples(self) -> np.ndarray:
        """The sorted samples (read-only view)."""
        view = self._sorted.view()
        view.flags.writeable = False
        return view

    @property
    def bin_width(self) -> Optional[float]:
        """Bin width (seconds) the samples were measured over, if known."""
        return self._bin_width

    def _require_samples(self) -> None:
        if self.is_empty:
            raise ValidationError("operation requires a non-empty distribution")

    # ----------------------------------------------------------------- update
    def add(self, values: Iterable[float]) -> "EmpiricalDistribution":
        """Return a new distribution with ``values`` merged in."""
        merged = np.concatenate([self._sorted, _as_samples(values)])
        return EmpiricalDistribution(merged, bin_width=self._bin_width)

    @classmethod
    def pooled(cls, distributions: Sequence["EmpiricalDistribution"]) -> "EmpiricalDistribution":
        """Pool several distributions into a single global one.

        This is how the homogeneous (monoculture) policy builds its global
        distribution at the central console: all per-host samples are
        collapsed together before percentiles are extracted.  Distributions
        with conflicting known bin widths measure incomparable counts and are
        rejected (see :func:`common_bin_width`).
        """
        require(len(distributions) > 0, "pooled requires at least one distribution")
        if len(distributions) == 1:
            # Nothing to pool: the (immutable) distribution is its own pool.
            return distributions[0]
        width = common_bin_width(distributions)
        arrays: List[np.ndarray] = [dist._sorted for dist in distributions]
        return cls(np.concatenate(arrays) if arrays else [], bin_width=width)

    # ---------------------------------------------------------------- queries
    def min(self) -> float:
        """Smallest observed sample."""
        self._require_samples()
        return float(self._sorted[0])

    def max(self) -> float:
        """Largest observed sample."""
        self._require_samples()
        return float(self._sorted[-1])

    def mean(self) -> float:
        """Sample mean."""
        self._require_samples()
        return float(np.mean(self._sorted))

    def std(self) -> float:
        """Sample standard deviation (population convention, ddof=0)."""
        self._require_samples()
        return float(np.std(self._sorted))

    def percentile(self, q: float) -> float:
        """Return the ``q``-th percentile (``q`` in [0, 100])."""
        require(0.0 <= q <= 100.0, "percentile q must be in [0, 100]")
        self._require_samples()
        return float(self._tail_percentiles([q])[0])

    def quantile(self, p: float) -> float:
        """Return the ``p``-quantile (``p`` in [0, 1])."""
        require_probability(p, "p")
        return self.percentile(100.0 * p)

    def cdf(self, value: float) -> float:
        """Return ``P(X <= value)``."""
        self._require_samples()
        return float(np.searchsorted(self._sorted, value, side="right")) / self._sorted.size

    def exceedance(self, value: float) -> float:
        """Return ``P(X > value)`` — the false-positive rate at threshold ``value``."""
        return 1.0 - self.cdf(value)

    def cdfs(self, values) -> np.ndarray:
        """Vectorised :meth:`cdf`: ``P(X <= v)`` for an array of values."""
        self._require_samples()
        counts = np.searchsorted(self._sorted, np.asarray(values, dtype=float), side="right")
        return counts.astype(float) / self._sorted.size

    def exceedances(self, values) -> np.ndarray:
        """Vectorised :meth:`exceedance`: ``P(X > v)`` for an array of values."""
        return 1.0 - self.cdfs(values)

    def percentiles(self, qs) -> np.ndarray:
        """Vectorised :meth:`percentile` for an array of ``q`` values in [0, 100]."""
        values = np.asarray(qs, dtype=float)
        require(bool(np.all((values >= 0.0) & (values <= 100.0))), "percentile q must be in [0, 100]")
        self._require_samples()
        return self._tail_percentiles(values.ravel()).reshape(values.shape)

    def _tail_percentiles(self, qs) -> np.ndarray:
        return tail_percentiles(self._sorted[None, :], np.array([self._sorted.size]), qs)[0]

    def survival_at_or_above(self, value: float) -> float:
        """Return ``P(X >= value)``."""
        self._require_samples()
        return 1.0 - float(np.searchsorted(self._sorted, value, side="left")) / self._sorted.size

    def rank(self, value: float) -> float:
        """Return the percentile rank of ``value`` (0-100)."""
        return 100.0 * self.cdf(value)

    def shifted_exceedance(self, threshold: float, shift: float) -> float:
        """Return ``P(X + shift > threshold)``.

        Used to compute detection probabilities when an attacker adds
        ``shift`` units of traffic on top of the benign feature value.
        """
        return self.exceedance(threshold - shift)

    def headroom(self, threshold: float, quantile: float = 0.5) -> float:
        """Return ``threshold - quantile(X)``: the attacker's hidden-traffic room.

        The paper's Figure 4(b) measures the "room" ``T - g`` an attacker can
        exploit; by default this uses the median of the benign distribution as
        the reference point for ``g``.
        """
        require_probability(quantile, "quantile")
        self._require_samples()
        return threshold - self.quantile(quantile)

    def largest_hidden_shift(self, threshold: float, evasion_probability: float) -> float:
        """Largest additive shift ``b`` with ``P(X + b < threshold) >= evasion_probability``.

        This implements the resourceful (mimicry) attacker from the paper: the
        attacker knows the benign distribution and chooses the largest
        injection that still evades detection with the requested probability.
        Returns 0.0 if even ``b = 0`` cannot achieve the target (i.e. the
        benign traffic alone exceeds the threshold too often).
        """
        require_probability(evasion_probability, "evasion_probability")
        self._require_samples()
        # P(X + b < T) >= p  <=>  b <= T - quantile_p(X) (strictly, using the
        # p-quantile of X). Use the empirical p-quantile.
        room = threshold - self.quantile(evasion_probability)
        return max(0.0, float(room))

    def summary(self) -> dict:
        """Return a dict of headline statistics for reporting."""
        self._require_samples()
        return {
            "count": len(self),
            "min": self.min(),
            "mean": self.mean(),
            "std": self.std(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
            "max": self.max(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        if self.is_empty:
            return "EmpiricalDistribution(empty)"
        return (
            f"EmpiricalDistribution(n={len(self)}, "
            f"median={self.percentile(50):.3g}, p99={self.percentile(99):.3g})"
        )


def common_bin_width(distributions: Sequence["EmpiricalDistribution"]) -> Optional[float]:
    """The single bin width shared by ``distributions``, or None if unknown.

    A per-bin count over a 60-second bin and one over a 300-second bin measure
    different quantities; pooling them produces a threshold that is wrong for
    every member.  Distributions whose width is unknown (``None``) are
    compatible with anything; two *known* but different widths raise.
    """
    widths = {dist.bin_width for dist in distributions if dist.bin_width is not None}
    if len(widths) > 1:
        raise ValidationError(
            "cannot pool distributions with different bin widths "
            f"({sorted(widths)}); resample to a common bin width first"
        )
    return next(iter(widths)) if widths else None


def _as_samples(samples: Optional[Iterable[float]]) -> np.ndarray:
    """``samples`` as a float array, rejecting non-finite values.

    Arrays, lists and tuples convert directly; only other iterables (for
    example generators) are materialised into a list first.
    """
    if samples is None:
        return np.empty(0)
    if not isinstance(samples, (np.ndarray, list, tuple)):
        samples = list(samples)
    values = np.asarray(samples, dtype=float)
    if values.size and not np.all(np.isfinite(values)):
        raise ValidationError("samples must be finite")
    return values


def tail_percentiles(rows: np.ndarray, counts: np.ndarray, qs) -> np.ndarray:
    """Percentiles ``qs`` (in [0, 100]) of every row's samples, as ``(rows, len(qs))``.

    ``rows`` is row-sorted and row ``i`` holds its samples in its last
    ``counts[i]`` columns (``counts[i] >= 1``).  The result equals
    ``np.percentile(samples_i, qs)`` bit for bit: numpy's ``linear`` method
    puts percentile ``q`` at the virtual index ``(n - 1) * (q / 100)``,
    takes the top sample from index ``n - 1`` on, and interpolates between
    the neighbouring samples with numpy's ``_lerp`` rounding.  The samples
    are already sorted, so the neighbours are read directly instead of
    partitioning a copy.
    """
    fractions = np.true_divide(np.asarray(qs, dtype=float), 100)
    last = np.asarray(counts, dtype=np.intp)[:, None] - 1
    virtual = last * fractions[None, :]
    previous = np.floor(virtual)
    following = previous + 1
    top = virtual >= last
    # numpy points both neighbours at index -1 (the top sample) and derives
    # the weight from that index, so the weight is computed the same way.
    previous[top] = -1
    following[top] = -1
    gamma = virtual - previous
    # Row i's sample k sits in column start_i + k; the top sample in the last.
    width = rows.shape[1]
    start = width - 1 - last
    low = np.take_along_axis(rows, np.where(top, width - 1, start + previous.astype(np.intp)), 1)
    high = np.take_along_axis(
        rows, np.where(top, width - 1, start + following.astype(np.intp)), 1
    )
    difference = high - low
    result = low + difference * gamma
    np.subtract(high, difference * (1 - gamma), out=result, where=gamma >= 0.5)
    return result


class DistributionBlock(Mapping[int, EmpiricalDistribution]):
    """Per-host empirical distributions stored as one row-sorted ``(hosts, bins)`` block.

    Row ``i`` belongs to ``host_ids[i]`` and is sorted ascending; the host's
    samples are its last ``counts[i]`` columns (earlier columns hold values
    that are not samples: the excluded idle bins of an active-bins-only
    training week, or ``-inf`` padding when hosts have different lengths).
    Looking a host up returns an :class:`EmpiricalDistribution` over a
    read-only view of that tail, so the block is the ``Mapping[int,
    EmpiricalDistribution]`` every policy and heuristic consumes, while
    per-host statistics over the whole population are one array pass.
    """

    def __init__(
        self,
        host_ids: Sequence[int],
        rows: np.ndarray,
        counts: np.ndarray,
        bin_widths: Sequence[Optional[float]],
    ) -> None:
        require(rows.ndim == 2 and rows.shape[0] == len(host_ids), "one row per host is required")
        require(bool(np.all(counts >= 1)), "every host needs at least one sample")
        self._host_ids = tuple(host_ids)
        self._index = {host_id: row for row, host_id in enumerate(self._host_ids)}
        require(len(self._index) == len(self._host_ids), "host ids must be distinct")
        rows.flags.writeable = False
        self._rows = rows
        self._counts = np.asarray(counts, dtype=np.intp)
        self._bin_widths = tuple(bin_widths)

    @classmethod
    def from_samples(
        cls,
        host_ids: Sequence[int],
        samples: Sequence[np.ndarray],
        bin_widths: Sequence[Optional[float]],
        active_only: bool = False,
    ) -> "DistributionBlock":
        """Sort and stack one sample array per host.

        With ``active_only`` a host's distribution keeps only its positive
        samples — the tail of its sorted row, since counts are
        non-negative — and a host with none keeps every sample.
        """
        require(len(samples) > 0, "a block needs at least one host")
        lengths = np.array([len(values) for values in samples], dtype=np.intp)
        width = int(lengths.max())
        # Pad short rows at the front with -inf: it sorts before every
        # sample, so each host's samples stay the tail of its row.
        rows = np.full((len(samples), width), -np.inf)
        for row, values in zip(rows, samples, strict=True):
            row[width - len(values):] = values
        padding = np.arange(width)[None, :] < (width - lengths)[:, None]
        if not bool(np.all(np.isfinite(rows) | padding)):
            raise ValidationError("samples must be finite")
        rows.sort(axis=1)
        counts = lengths
        if active_only:
            active = np.count_nonzero(rows > 0, axis=1)
            counts = np.where(active > 0, active, lengths)
        return cls(host_ids, rows, counts, bin_widths)

    @classmethod
    def stack(cls, distributions: Mapping[int, EmpiricalDistribution]) -> "DistributionBlock":
        """``distributions`` as a block (returned unchanged when it already is one)."""
        if isinstance(distributions, DistributionBlock):
            return distributions
        require(len(distributions) > 0, "a block needs at least one host")
        for distribution in distributions.values():
            distribution._require_samples()
        return cls.from_samples(
            list(distributions),
            [distribution._sorted for distribution in distributions.values()],
            [distribution.bin_width for distribution in distributions.values()],
        )

    # ---------------------------------------------------------------- mapping
    def __getitem__(self, host_id: int) -> EmpiricalDistribution:
        row = self._index[host_id]
        return EmpiricalDistribution._of_sorted(
            self._rows[row, self._rows.shape[1] - self._counts[row]:], self._bin_widths[row]
        )

    def __iter__(self) -> Iterator[int]:
        return iter(self._host_ids)

    def __len__(self) -> int:
        return len(self._host_ids)

    def __contains__(self, host_id: object) -> bool:
        return host_id in self._index

    # ---------------------------------------------------------------- columns
    @property
    def host_ids(self) -> tuple:
        """Hosts in row order."""
        return self._host_ids

    def percentiles(self, qs) -> np.ndarray:
        """Every host's percentiles ``qs`` (in [0, 100]) as ``(hosts, len(qs))``."""
        values = np.asarray(qs, dtype=float).ravel()
        require(bool(np.all((values >= 0.0) & (values <= 100.0))), "percentile q must be in [0, 100]")
        return tail_percentiles(self._rows, self._counts, values)

    def percentile(self, q: float) -> np.ndarray:
        """Every host's ``q``-th percentile, in row order."""
        return self.percentiles([q])[:, 0]

    def maxima(self) -> np.ndarray:
        """Every host's largest sample, in row order."""
        return self._rows[:, -1]

    def subset(self, host_ids: Sequence[int]) -> "DistributionBlock":
        """The block restricted to ``host_ids`` (rows copied, in that order)."""
        rows = [self._index[host_id] for host_id in host_ids]
        return DistributionBlock(
            host_ids,
            self._rows[rows],
            self._counts[rows],
            [self._bin_widths[row] for row in rows],
        )
