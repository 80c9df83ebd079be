"""Invariant auditing and anti-entropy repair for cache clouds.

Two halves, one goal — *provable* convergence under faults:

* :mod:`repro.audit.invariants` — the read-only
  :class:`~repro.audit.invariants.InvariantAuditor`, which checks a cloud
  (or a whole edge network) against the global invariants the design
  promises and reports every violation.
* :mod:`repro.audit.antientropy` — the deterministic, budgeted
  :class:`~repro.audit.antientropy.AntiEntropyProcess`, which repairs the
  divergence (stale holders, dangling/orphaned directory state) the base
  protocols fix lazily or never.
* :mod:`repro.audit.chaos` — the chaos-audit harness: seeded
  fault+churn scenarios driven to quiescence, then audited; the CI gate
  asserting "anti-entropy repairs everything the auditor can see".
"""

from repro.audit.antientropy import (
    AntiEntropyProcess,
    AntiEntropyStats,
)
from repro.audit.chaos import (
    ChaosOutcome,
    ChaosScenario,
    chaos_audit_grid,
    run_chaos_scenario,
)
from repro.audit.invariants import (
    AuditReport,
    InvariantAuditor,
    Violation,
    ViolationKind,
)

__all__ = [
    "AntiEntropyProcess",
    "AntiEntropyStats",
    "AuditReport",
    "ChaosOutcome",
    "ChaosScenario",
    "InvariantAuditor",
    "Violation",
    "ViolationKind",
    "chaos_audit_grid",
    "run_chaos_scenario",
]
