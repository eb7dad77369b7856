"""How pixel crosstalk fakes photon bunching and how to undo it.

A single detector reads coherent light (true g2 = 1) but reports a g2
well above 1 at low count rates: crosstalk converts single-photon events
into believable coincidences. The closed-form model A(p) g0 + B(p)/N
captures the distortion and inverts it.
"""
import numpy as np

from mppcsim import (
    CountHistogram,
    coefficient_a,
    coefficient_b,
    expected_coincidences,
    expected_total_counts,
    g2_from_histogram,
    invert_g2,
    measured_g2,
    transform_counts_exact,
)

p = 0.177
print(f"model coefficients at p={p}: A={coefficient_a(p):.5f} B={coefficient_b(p):.5f}")

print()
print("a histogram of pure single-photon events, pushed through crosstalk:")
hist = CountHistogram(1000, np.array([0, 1000]))
bins = transform_counts_exact(hist.counts, "0.1")  # exact rationals
out = CountHistogram(hist.trials, [float(v) for v in bins])
print("  bins before:", hist.counts.astype(int).tolist())
print("  bins after :", out.counts.tolist())
print("  events conserved:", out.counts.sum() == hist.counts.sum())
print("  coincidence total:", expected_coincidences(hist, "0.1"))
print("  photocount total :", expected_total_counts(hist, "0.1"))

print()
print("measured g2 of coherent light vs mean counts per pulse (p=0.177):")
for n_total in (0.05, 0.2, 0.5, 1.0, 2.0):
    g2 = measured_g2(p, 1.0, n_total)
    back = invert_g2(g2, n_total, p)
    print(f"  N={n_total:4.2f}: measured {g2:7.4f} -> recovered g0 = {back:.6f}")

print()
print("the distortion in an actual histogram estimate:")
est = g2_from_histogram(out)
print(f"  crosstalked singles read g2 = {est.value:.4f} +/- {est.std_err:.4f}")
print("  (a deterministic single-photon source would have g2 = 0)")
