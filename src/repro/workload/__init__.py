"""Workload generation: document corpora, Zipf samplers, and trace synthesis.

The paper evaluates on two datasets:

* **Zipf-0.9** — a synthetic dataset of 25 000 unique documents where both
  accesses and invalidations follow a Zipf distribution with parameter 0.9
  (paper §4). Reproduced by :class:`~repro.workload.generator.SyntheticTraceGenerator`.
* **Sydney** — a proprietary 24-hour access/update trace from the IBM 2000
  Sydney Olympics web site (~52 000 documents). That trace is not public, so
  :class:`~repro.workload.sydney.SydneyTraceGenerator` synthesizes a trace
  with the same qualitative structure: heavy-tailed popularity, a diurnal
  request-rate envelope, drifting popularity (event-driven hot-spots), and an
  update stream concentrated on a small "live scoreboard" subset. See
  DESIGN.md §2 for the substitution rationale.
"""

from repro.workload.documents import Corpus, DocumentSpec, build_corpus
from repro.workload.generator import SyntheticTraceGenerator, WorkloadConfig
from repro.workload.sydney import SydneyConfig, SydneyTraceGenerator
from repro.workload.trace import RequestRecord, Trace, UpdateRecord, merge_streams
from repro.workload.zipf import ZipfSampler, zipf_weights

__all__ = [
    "Corpus",
    "DocumentSpec",
    "RequestRecord",
    "SydneyConfig",
    "SydneyTraceGenerator",
    "SyntheticTraceGenerator",
    "Trace",
    "UpdateRecord",
    "WorkloadConfig",
    "ZipfSampler",
    "build_corpus",
    "merge_streams",
    "zipf_weights",
]
