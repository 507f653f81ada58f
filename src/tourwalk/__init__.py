"""Near-uniform sampling of Eulerian tours of directed multigraphs.

The package implements a flip-repair Markov chain on degree-two tours, a
sqrt-decomposition data structure that executes its steps in sublinear time,
switching-network degree reduction for arbitrary Eulerian multigraphs, exact
counting oracles, and a numerical lab that checks the linear-algebra facts
behind the chain's mixing guarantees.
"""

__version__ = "0.1.0"

from .multigraph import (
    DirectedMultigraph,
    SuppressionTrace,
    Tour,
    TransitionSystem,
    cycle_count,
    graph_from_text,
    graph_to_text,
    hierholzer_tour,
    lift_suppressed,
    suppress_degree_one,
    tour_from_text,
    tour_to_text,
    validate_eulerian,
)
from .oracle import TourCensus, best_count, empirical_tv, enumerate_tours
from .rng import SplitMix64
from .sampler import SampleConfig, SampleReport, sample_tour

__all__ = [
    "DirectedMultigraph",
    "SampleConfig",
    "SampleReport",
    "SplitMix64",
    "SuppressionTrace",
    "Tour",
    "TourCensus",
    "TransitionSystem",
    "best_count",
    "cycle_count",
    "empirical_tv",
    "enumerate_tours",
    "graph_from_text",
    "graph_to_text",
    "hierholzer_tour",
    "lift_suppressed",
    "sample_tour",
    "suppress_degree_one",
    "tour_from_text",
    "tour_to_text",
    "validate_eulerian",
]
