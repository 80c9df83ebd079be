"""Analytical models backing the paper's theoretical claims.

§2.3 asserts (deferring proofs to the technical report [11]): "It can be
theoretically shown that by having two beacon points in each beacon ring we
can obtain significantly better load balancing when compared with static
hashing, and further increasing the size of beacon rings improves the load
balancing incrementally". The technical report is unavailable, so
:mod:`repro.analysis.balance_theory` derives the claim from first
principles — variance of random bucket sums vs ring-balanced shares — and
the test suite validates the model against Monte-Carlo simulation of the
actual hashing machinery.
"""

from repro.analysis.balance_theory import (
    expected_cov_ring_balanced,
    expected_cov_static,
    monte_carlo_cov,
    zipf_load_weights,
)

__all__ = [
    "expected_cov_ring_balanced",
    "expected_cov_static",
    "monte_carlo_cov",
    "zipf_load_weights",
]
