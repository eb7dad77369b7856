"""The saturating detector channel and its response matrix.

Shows how loss, crosstalk and the hard photocount ceiling reshape a
photon-number distribution, and that the response matrix stays
column-stochastic (no probability lost or invented).
"""
import numpy as np

from mppcsim import (
    DetectorParams,
    apply_channel,
    build_povm,
    pmf_coherent,
    pmf_fock,
)

params = DetectorParams(eta=0.5, p_xt=0.2, n_max=4)
povm = build_povm(params, 8)

print("response matrix Q(N|k) for eta=0.5, p=0.2, n_max=4 (rows N, cols k=0..8)")
for n in range(povm.q.shape[0]):
    print("  " + " ".join(f"{v:7.4f}" for v in povm.q[n]))
print("column sums:", np.round(povm.q.sum(axis=0), 12))

print()
print("single photon through the channel: detect with 0.5, then maybe crosstalk")
out = apply_channel(pmf_fock(1), params)
print("  P(N) =", np.round(out.probs[:4], 4), " (0.5 / 0.4 / 0.1 split)")

print()
print("saturation: coherent light of growing mean into a 4-count ceiling")
for mean in (0.5, 2.0, 5.0, 12.0):
    dist = pmf_coherent(mean)
    counts = apply_channel(dist, params)
    m1, m2 = counts.moment(1), counts.moment(2)
    print(
        f"  mean photons {mean:5.1f}: counts/pulse {m1:6.3f}, "
        f"variance {m2 - m1**2:6.3f}"
    )
print("the variance collapses as the detector pins at n_max")
