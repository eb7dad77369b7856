"""Photon-number statistics of the bundled light sources.

Builds each analytic distribution, prints its low bins and its intrinsic
second-order correlation. Coherent light sits exactly at g2 = 1, thermal
light at 2, Fock states below 1, and the even-number-only source shows
the two-photon excess that survives any amount of optical loss.
"""
import numpy as np

from mppcsim import (
    pmf_coherent,
    pmf_even_poisson,
    pmf_fock,
    pmf_thermal,
    pmf_twin_multimode,
    true_g2_of_dist,
)

sources = {
    "coherent(mean=1)": pmf_coherent(1.0),
    "even_poisson(weight=2)": pmf_even_poisson(2.0),
    "thermal(mean=1)": pmf_thermal(1.0),
    "twin_multimode(mean=2, modes=4)": pmf_twin_multimode(2.0, 4.0),
    "fock(2)": pmf_fock(2),
}

print(f"{'source':34s} {'P(0)':>8s} {'P(1)':>8s} {'P(2)':>8s} {'mean':>8s} {'g2':>8s}")
for name, dist in sources.items():
    p0, p1, p2 = dist.probs[0], dist.probs[1], dist.probs[2]
    print(
        f"{name:34s} {p0:8.4f} {p1:8.4f} {p2:8.4f} "
        f"{dist.mean:8.4f} {true_g2_of_dist(dist):8.4f}"
    )

print()
print("loss invariance of g2: thermal(0.7) thinned to efficiency eta")
from scipy import stats

dist = pmf_thermal(0.7)
k = np.arange(dist.probs.size)
for eta in (1.0, 0.5, 0.1):
    thinned = stats.binom.pmf(k[:, None], k[None, :], eta) @ dist.probs
    m1 = k @ thinned
    g2 = (k * (k - 1)) @ thinned / m1**2
    print(f"  eta={eta:4.2f}: mean={m1:7.4f}  g2={g2:8.5f}")

print()
print("moment table for thermal(1): <n>, <n^2>, <n^3>, <n^4>")
vals = [pmf_thermal(1.0).moment(order) for order in (1, 2, 3, 4)]
print("  " + "  ".join(f"{v:.4f}" for v in vals))
