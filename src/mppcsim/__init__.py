"""Simulation and estimation toolkit for photon-number-resolving
multipixel photon counters.

The package models detection of quantum light through a channel with
loss, dark counts, pixel crosstalk and saturation; estimates g2 and
two-mode squeezing from count histograms; and calibrates the crosstalk
probability from coherent-light sweeps or dark-noise records.
"""

from .calibration import (
    CalibrationResult,
    MethodComparison,
    compare_methods,
    dark_noise_crosstalk,
    fit_crosstalk,
)
from .crosstalk import (
    coefficient_a,
    coefficient_b,
    expected_coincidences,
    expected_total_counts,
    invert_g2,
    measured_g2,
    transform_counts_exact,
)
from .detector import (
    DetectorParams,
    JointPhotocountDistribution,
    apply_channel,
    channel_matrix,
    joint_independent,
    joint_photocount,
    nrf_analytic,
    nrf_limit_coherent,
    nrf_limit_sv,
)
from .errors import (
    BoundaryFitWarning,
    CrosstalkRangeWarning,
    DarkSubtractionWarning,
    IllConditionedFitError,
    UndefinedStatisticError,
)
from .estimators import (
    EstimateWithError,
    g2_cross_from_joint,
    g2_from_histogram,
    mean_counts_per_pulse,
    nrf_from_joint,
    subtract_dark,
)
from .histograms import CountHistogram, JointCountHistogram, SweepSeries
from .montecarlo import (
    EventRecord,
    SimulationConfig,
    simulate_independent,
    simulate_single,
    simulate_twin,
    sweep,
)
from .sources import (
    PhotonNumberDistribution,
    SourceSpec,
    pmf_coherent,
    pmf_even_poisson,
    pmf_fock,
    pmf_thermal,
    pmf_twin_multimode,
    true_g2_of_dist,
)

__version__ = "0.1.0"
