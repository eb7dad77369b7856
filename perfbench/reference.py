"""Independent reference model of the detector chain.

Built with ``scipy.stats`` from the model's definition, not from
``mppcsim.detector``: photons are thinned by binomial loss with efficiency
eta, dark avalanches add a Poisson count, every avalanche adds crosstalk
counts, and the record is clamped at n_max.

Crosstalk kernels, for n avalanches:

* ``binomial``: each avalanche triggers at most one neighbour, N = n + Bin(n, p);
* ``cascade``: each triggered neighbour may trigger further ones, a
  geometric chain per avalanche, so N = n + NegBin(n, 1 - p)
  (Vinogradov, NIM A 695 (2012) 247).

The benchmark's checks compare the package's outputs against these
distributions; ``self_check`` tests the reference itself.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import stats

# probability mass a truncated reference support may leave out
TAIL = 1e-17


def _pmf(dist) -> np.ndarray:
    top = int(dist.mean() + 15.0 * dist.std() + 30)
    while dist.sf(top) > TAIL:
        top *= 2
    return dist.pmf(np.arange(top + 1))


def photon_pmf(kind: str, mean: float, modes: float = 1.0) -> np.ndarray:
    """Photon-number (or pair-number) distribution of a source kind."""
    if kind == "coherent":
        return _pmf(stats.poisson(mean))
    if kind in ("thermal", "twin_thermal"):
        return _pmf(stats.nbinom(1, 1.0 / (1.0 + mean)))
    if kind == "twin_multimode":
        return _pmf(stats.nbinom(modes, modes / (modes + mean)))
    if kind == "even_poisson":
        ks = np.arange(_pmf(stats.poisson(mean)).size + 1)
        norm = (1.0 + math.exp(-2.0 * mean)) / 2.0
        return np.where(ks % 2 == 0, stats.poisson.pmf(ks, mean) / norm, 0.0)
    raise ValueError(f"no reference for source kind {kind!r}")


def thin(pmf: np.ndarray, eta: float) -> np.ndarray:
    """Distribution of detected photons after independent binomial loss."""
    ks = np.arange(pmf.size)
    return stats.binom.pmf(ks[:, None], ks[None, :], eta) @ pmf


def add_dark(pmf: np.ndarray, dark_mean: float) -> np.ndarray:
    """Add an independent Poisson number of dark avalanches."""
    if dark_mean == 0:
        return pmf
    return np.convolve(pmf, _pmf(stats.poisson(dark_mean)))


def avalanche_pmf(
    kind: str, mean: float, eta: float, dark_mean: float = 0.0, modes: float = 1.0
) -> np.ndarray:
    """Avalanches per pulse: source, loss, then dark counts.

    Thinning keeps a Poisson law Poisson (coherent light becomes
    Poisson(eta*mean)) and a negative binomial one negative binomial
    with the mean scaled by eta; other sources are thinned explicitly.
    """
    if kind == "coherent":
        return _pmf(stats.poisson(eta * mean + dark_mean))
    if kind in ("thermal", "twin_thermal", "twin_multimode"):
        r = modes if kind == "twin_multimode" else 1.0
        detected = _pmf(stats.nbinom(r, r / (r + eta * mean)))
    else:
        detected = thin(photon_pmf(kind, mean, modes), eta)
    return add_dark(detected, dark_mean)


def crosstalk_matrix(p: float, n_max: int, mode: str) -> np.ndarray:
    """K[N, a]: probability that a avalanches record N counts, N, a < n_max."""
    big_n = np.arange(n_max)[:, None]
    a = np.arange(n_max)[None, :]
    if mode == "binomial":
        k = stats.binom.pmf(big_n - a, a, p)
    elif mode == "cascade":
        with np.errstate(invalid="ignore"):
            k = stats.nbinom.pmf(big_n - a, a, 1.0 - p)
        k[:, 0] = 0.0
        k[0, 0] = 1.0
    else:
        raise ValueError(f"unknown crosstalk mode {mode!r}")
    return np.nan_to_num(k)


def clamp(unsaturated: np.ndarray) -> np.ndarray:
    """Append the saturation row n_max as the complement of the rows below."""
    top = np.maximum(1.0 - unsaturated.sum(axis=0), 0.0)
    return np.concatenate([unsaturated, top[None, ...]])


def record_pmf(avalanches: np.ndarray, p: float, n_max: int, mode: str) -> np.ndarray:
    """Recorded photocounts N = 0..n_max from an avalanche distribution.

    Only avalanches below n_max can record fewer than n_max counts, so the
    rows below the clamp need the avalanche distribution up to n_max - 1.
    """
    a = np.zeros(n_max)
    head = avalanches[:n_max]
    a[: head.size] = head
    return clamp(crosstalk_matrix(p, n_max, mode) @ a)


def photocounts(
    kind: str,
    mean: float,
    eta: float,
    p: float,
    n_max: int,
    dark_mean: float = 0.0,
    mode: str = "binomial",
    modes: float = 1.0,
) -> np.ndarray:
    """Recorded photocount distribution of one detector arm."""
    return record_pmf(avalanche_pmf(kind, mean, eta, dark_mean, modes), p, n_max, mode)


def response_matrix(
    eta: float, p: float, n_max: int, k_max: int, dark_mean: float = 0.0,
    mode: str = "binomial",
) -> np.ndarray:
    """Q[N, k]: probability that k photons record N counts, k = 0..k_max."""
    a = np.arange(n_max)[:, None]
    detected = stats.binom.pmf(a, np.arange(k_max + 1)[None, :], eta)
    if dark_mean > 0:
        dark = stats.poisson.pmf(a - a.T, dark_mean)
        detected = dark @ detected
    return clamp(crosstalk_matrix(p, n_max, mode) @ detected)


def two_arm_table(
    kind: str, mean: float, eta: float, p: float, n_max: int,
    mode: str = "binomial", modes: float = 1.0,
) -> np.ndarray:
    """Joint photocount table of two identical arms.

    Twin kinds share the pair number per pulse; any other kind feeds the
    arms independent draws, so the table is the outer product of the
    single-arm distributions.
    """
    if kind.startswith("twin_"):
        pair = photon_pmf(kind, mean, modes)
        q = response_matrix(eta, p, n_max, pair.size - 1, mode=mode)
        return (q * pair[None, :]) @ q.T
    arm = photocounts(kind, mean, eta, p, n_max, mode=mode, modes=modes)
    return np.outer(arm, arm)


def moments(pmf: np.ndarray) -> tuple[float, float]:
    """Mean and variance of a distribution over 0, 1, 2, ..."""
    n = np.arange(pmf.size, dtype=float)
    mean = float(n @ pmf)
    return mean, float((n - mean) ** 2 @ pmf)


def g2(pmf: np.ndarray) -> float:
    """Zero-delay g2 = <N(N-1)>/<N>^2."""
    n = np.arange(pmf.size, dtype=float)
    return float((n * (n - 1)) @ pmf) / float(n @ pmf) ** 2


def cross_g2(table: np.ndarray) -> float:
    """Two-arm correlation <N_s N_i>/(<N_s><N_i>)."""
    n_s = np.arange(table.shape[0], dtype=float)
    n_i = np.arange(table.shape[1], dtype=float)
    return float(n_s @ table @ n_i) / (
        float(n_s @ table.sum(axis=1)) * float(n_i @ table.sum(axis=0))
    )


def nrf(table: np.ndarray) -> float:
    """Noise reduction factor Var(N_s - N_i)/<N_s + N_i> of a joint table."""
    n_s = np.arange(table.shape[0], dtype=float)[:, None]
    n_i = np.arange(table.shape[1], dtype=float)[None, :]
    diff = n_s - n_i
    mean_diff = float((diff * table).sum())
    var = float((diff**2 * table).sum()) - mean_diff**2
    return var / float(((n_s + n_i) * table).sum())


def g2_law(p: float, g0: float, n_total: np.ndarray) -> np.ndarray:
    """Second-order crosstalk law g2 = A(p) g0 + B(p)/n_total.

    A = (1 + 2p + 4p^2)/(1 + p + 2p^2)^2 and B = 2p(1 + 3p)/(1 + p + 2p^2).
    """
    s = 1.0 + p + 2.0 * p * p
    return (1.0 + 2.0 * p + 4.0 * p * p) / s**2 * g0 + 2.0 * p * (1.0 + 3.0 * p) / s / n_total


# statistics of the checks ----------------------------------------------------

def gof_pvalue(observed, probs, trials: int, min_expected: float = 5.0) -> float:
    """Pooled Pearson chi-square p-value of observed counts against probs.

    Cells expected to hold fewer than ``min_expected`` events are pooled
    into one cell; an event in a cell of probability zero gives 0.
    """
    obs = np.asarray(observed, dtype=float).ravel()
    exp = trials * np.asarray(probs, dtype=float).ravel()
    if obs.size != exp.size:
        return 0.0
    if np.any((exp <= 0) & (obs > 0)):
        return 0.0
    big = exp >= min_expected
    o = np.append(obs[big], obs[~big].sum())
    e = np.append(exp[big], exp[~big].sum())
    if e[-1] < min_expected and o.size > 1:
        o[-2] += o[-1]
        e[-2] += e[-1]
        o, e = o[:-1], e[:-1]
    if o.size < 2:
        return 1.0
    chi2 = float(((o - e) ** 2 / e).sum())
    return float(stats.chi2.sf(chi2, o.size - 1))


def self_check() -> list[str]:
    """Quick properties of the reference itself; returns the failures."""
    failures = []
    p = 0.177
    for mode in ("binomial", "cascade"):
        q = response_matrix(0.3, p, 40, 60, dark_mean=0.2, mode=mode)
        if np.max(np.abs(q.sum(axis=0) - 1.0)) > 1e-12:
            failures.append(f"{mode} response columns do not sum to 1")
        if np.any(q < 0):
            failures.append(f"{mode} response has negative entries")
    wide = crosstalk_matrix(p, 400, "cascade")
    cols = np.arange(400, dtype=float) @ wide[:, 1:30]
    if np.max(np.abs(cols - np.arange(1, 30) / (1.0 - p))) > 1e-9:
        failures.append("cascade NegBin mean differs from n/(1-p)")
    wide = crosstalk_matrix(p, 400, "binomial")
    cols = np.arange(400, dtype=float) @ wide[:, 1:30]
    if np.max(np.abs(cols - np.arange(1, 30) * (1.0 + p))) > 1e-9:
        failures.append("binomial crosstalk mean differs from n(1+p)")
    closed = avalanche_pmf("coherent", 7.0, 0.3)
    explicit = thin(photon_pmf("coherent", 7.0), 0.3)
    if np.max(np.abs(closed[: explicit.size] - explicit[: closed.size])) > 1e-14:
        failures.append("coherent thinning differs from Poisson(eta*mean)")
    closed = avalanche_pmf("thermal", 3.0, 0.3)
    explicit = thin(photon_pmf("thermal", 3.0), 0.3)
    if np.max(np.abs(closed[: explicit.size] - explicit[: closed.size])) > 1e-14:
        failures.append("thermal thinning differs from thermal(eta*mean)")
    clamped = photocounts("coherent", 30.0, 0.5, p, 12)
    if abs(clamped.sum() - 1.0) > 1e-12 or clamped[-1] < 0.5:
        failures.append("n_max clamp does not collect the saturated mass")
    table = two_arm_table("twin_thermal", 1.5, 0.163, 0.28, 3)
    arm = photocounts("thermal", 1.5, 0.163, 0.28, 3)
    if abs(table.sum() - 1.0) > 1e-12 or np.max(np.abs(table.sum(axis=1) - arm)) > 1e-12:
        failures.append("twin n_max 3 table marginal differs from the single arm")
    return failures
