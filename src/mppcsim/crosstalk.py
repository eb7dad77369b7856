"""Closed-form second-order crosstalk model at the histogram level.

Each recorded avalanche can promote its event by one count with
probability p and by two counts with probability p^2 (one neighbor
triggering a further neighbor); third-order terms are dropped, which
caps the validity of the model at p <= 0.6 where 1 - p - p^2 is still a
probability. The one transform, ``transform_counts_exact``, redistributes
events between bins without creating or destroying any, so aggregate
identities for the coincidence and singles totals follow exactly.

All bin arithmetic runs on exact rationals; pass p as a string ("0.1")
or ``Fraction`` to keep decimal inputs exact end to end.
"""
from __future__ import annotations

import warnings
from fractions import Fraction

from .errors import CrosstalkRangeWarning
from .histograms import CountHistogram

# validity range of p, exact so that decimal strings such as "0.6" compare
# as written; Fraction(0.6), the binary float, lies below Fraction("0.6")
P_CAP = Fraction(6, 10)
P_WARN = Fraction(3, 10)


def _as_fraction(p) -> Fraction:
    if isinstance(p, Fraction):
        return p
    if isinstance(p, str):
        return Fraction(p)
    return Fraction(float(p))


def _check_p(p: Fraction, context: str, warn: bool = True) -> None:
    if p < 0 or p > P_CAP:
        raise ValueError(
            f"{context}: p must lie in [0, {float(P_CAP)}], got {float(p)}"
        )
    if warn and p > P_WARN:
        warnings.warn(
            f"{context}: p = {float(p):.3g} strains the second-order model "
            "(neglected third-order terms approach the kept ones)",
            CrosstalkRangeWarning,
            stacklevel=3,
        )


def transform_counts_exact(counts, p) -> list[Fraction]:
    """Expected crosstalk-perturbed bin values, as exact rationals.

    Bin k >= 1 loses k(p + p^2) N_k of its events, of which k p N_k move
    to bin k+1 and k p^2 N_k to bin k+2; bin 0 is untouched. The output
    has two extra bins and the same total as the input.
    """
    pf = _as_fraction(p)
    _check_p(pf, "crosstalk transform")
    vals = [Fraction(c if isinstance(c, int) else float(c)) for c in counts]
    out = vals + [Fraction(0), Fraction(0)]
    p2 = pf * pf
    for k in range(1, len(vals)):
        n_k = vals[k]
        if n_k == 0:
            continue
        single = k * pf * n_k
        double = k * p2 * n_k
        out[k] -= single + double
        out[k + 1] += single
        out[k + 2] += double
    return out


def _pair_and_count_sums(hist: CountHistogram) -> tuple[Fraction, Fraction]:
    """Exact (sum C(k,2) N_k, sum k N_k) over the histogram's bins."""
    vals = [Fraction(c if isinstance(c, int) else float(c)) for c in hist.counts]
    pairs = sum(Fraction(k * (k - 1), 2) * v for k, v in enumerate(vals))
    return pairs, sum(k * v for k, v in enumerate(vals))


def expected_coincidences(hist: CountHistogram, p) -> float:
    """Pairwise-coincidence total of the crosstalk-perturbed histogram.

    Equals (1 + 2p + 4p^2) sum C(k,2) N_k + p(1 + 3p) sum k N_k, computed
    exactly; agrees identically with counting pairs on the transformed bins.
    """
    pf = _as_fraction(p)
    _check_p(pf, "coincidence aggregate")
    s, d = _pair_and_count_sums(hist)
    return float((1 + 2 * pf + 4 * pf * pf) * s + pf * (1 + 3 * pf) * d)


def expected_total_counts(hist: CountHistogram, p) -> float:
    """Photocount total of the crosstalk-perturbed histogram: (1+p+2p^2) sum k N_k."""
    pf = _as_fraction(p)
    _check_p(pf, "total-count aggregate")
    return float((1 + pf + 2 * pf * pf) * _pair_and_count_sums(hist)[1])


def coefficient_a(p: float) -> float:
    """Multiplicative distortion of g2: (1+2p+4p^2)/(1+p+2p^2)^2."""
    if not 0.0 <= p <= float(P_CAP):
        raise ValueError(f"p must lie in [0, {float(P_CAP)}]")
    return (1.0 + 2.0 * p + 4.0 * p**2) / (1.0 + p + 2.0 * p**2) ** 2


def coefficient_b(p: float) -> float:
    """Additive distortion of g2 per inverse count rate: 2p(1+3p)/(1+p+2p^2)."""
    if not 0.0 <= p <= float(P_CAP):
        raise ValueError(f"p must lie in [0, {float(P_CAP)}]")
    return 2.0 * p * (1.0 + 3.0 * p) / (1.0 + p + 2.0 * p**2)


def measured_g2(p: float, g0: float, n_total_per_pulse: float) -> float:
    """Crosstalk-distorted g2: A(p) g0 + B(p)/n_total_per_pulse."""
    if n_total_per_pulse <= 0:
        raise ValueError("n_total_per_pulse must be positive")
    return coefficient_a(p) * g0 + coefficient_b(p) / n_total_per_pulse


def invert_g2(g2_value: float, n_total_per_pulse: float, p: float) -> float:
    """Recover the source g2 from a measured value: (g2 - B/n)/A."""
    if n_total_per_pulse <= 0:
        raise ValueError("n_total_per_pulse must be positive")
    return (g2_value - coefficient_b(p) / n_total_per_pulse) / coefficient_a(p)
