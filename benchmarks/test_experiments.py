"""Every registry experiment at the benchmark scale, claims asserted.

One parametrized bench over :data:`repro.experiments.registry.REGISTRY`:
each experiment runs once at its ``small`` scale (seconds to a minute per
entry; ``REPRO_JOBS=N`` fans the sweeps out), its tables are printed and
archived, and the run must have no failed point and no false claim — the
paper's qualitative findings (figs. 3–9), the ablations' and extensions'
expectations, and the beyond-paper sweeps' acceptance criteria all live in
the entries' ``claims``. Tier-1 asserts the same claims at the tiny scale
(``tests/test_experiments_registry.py``), minus the few that need this
scale to resolve.
"""

import pytest

from benchmarks.conftest import BENCH_JOBS, archive, show
from repro.experiments import registry


@pytest.mark.parametrize("name", list(registry.REGISTRY))
def test_experiment(benchmark, name):
    outcome = benchmark.pedantic(
        lambda: registry.run(name, "small", jobs=BENCH_JOBS), rounds=1, iterations=1
    )
    show(outcome.render())
    archive(outcome.result, name)
    benchmark.extra_info.update(outcome.claims)

    assert not outcome.failures
    false = [claim for claim, holds in outcome.claims.items() if not holds]
    assert outcome.claims and not false, f"{name}: false claims {false}"
