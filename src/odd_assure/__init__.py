"""Executable ODD and hazard models compiled into Bayesian confidence monitors.

The toolkit covers the pipeline from safety analysis artifacts to a runtime
confidence score: ODD specs with interval-bounded attributes (odd_model),
hazard causal chains and fault trees (hara_fta), discrete Bayesian networks
with exact inference (bayes_core), assurance network templates and their
evidence metrics (confidence_templates), a triple store with axiom checking
(safety_ontology), decision-tree boundary refinement (boundary_refinement),
and the streaming monitor itself (runtime_monitor).

Each name is imported from its module (``from odd_assure import bayes_core``);
importing the package alone loads none of them.
"""

__version__ = "0.1.0"
