"""Single table of numeric tolerances and caps used across the package.

Modules and tests refer to these names instead of repeating literals, so the
whole numeric policy can be audited or tightened in one place.
"""

HERMITIAN_TOL = 1e-10       # max-abs entry of M - M^dagger for valid Hermitian input
PSD_TOL = 1e-9              # eigenvalues may dip this far below zero before rejection
TRACE_TOL = 1e-10           # |tr(rho) - trace_mass|
CHANNEL_TOL = 1e-10         # max-abs entry of sum(K^dagger K) - I
POVM_SUM_TOL = 1e-10        # max-abs entry of sum(Gamma_x) - I
POVM_ELEM_TOL = 1e-9        # eigenvalue range slack for 0 <= Gamma_x <= I
PROB_TOL = 1e-12            # classical distribution normalisation
EXACT_TOL = 1e-12           # agreement of computations that should match exactly
METRIC_TOL = 1e-9           # inequality slack wherever spectral round-off enters
RANK_CUTOFF = 1e-12         # PSD factors and Gram square roots drop eigenvalues below this times the largest
DIM_CAP = 16384             # largest total Hilbert-space dimension; exceeding it is an error
ENTROPY_EIG_CUTOFF = 1e-12  # eigenvalues below this are treated as 0 in entropy sums
