"""Network substrate: topology, landmark clustering, transport, origin server.

The paper assumes cache clouds are formed from an edge network by an
"Internet landmarks-based" clustering technique (reference [12], unpublished)
and evaluates everything above that layer. This package supplies the full
substrate:

* :mod:`~repro.network.topology` — a synthetic Internet model: nodes embedded
  in a Euclidean latency space plus an explicit-matrix variant.
* :mod:`~repro.network.landmarks` — landmark-vector clustering of edge caches
  into clouds (our stand-in for [12]).
* :mod:`~repro.network.transport` — message/byte accounting with latency,
  categorized into the traffic classes the paper charts in Figures 8–9.
* :mod:`~repro.network.origin` — the origin server: document versions,
  update dissemination entry point, group-miss fetch target.
* :mod:`~repro.network.bandwidth` — the traffic meter (bytes per category per
  unit time).
"""

from repro.network.bandwidth import TrafficCategory, TrafficMeter
from repro.network.landmarks import LandmarkClustering, form_cache_clouds
from repro.network.origin import OriginServer
from repro.network.topology import EuclideanTopology, ExplicitTopology, NetworkTopology
from repro.network.transport import CONTROL_MESSAGE_BYTES, Transport

__all__ = [
    "CONTROL_MESSAGE_BYTES",
    "EuclideanTopology",
    "ExplicitTopology",
    "LandmarkClustering",
    "NetworkTopology",
    "OriginServer",
    "TrafficCategory",
    "TrafficMeter",
    "Transport",
    "form_cache_clouds",
]
