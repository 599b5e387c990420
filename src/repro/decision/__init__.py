"""`repro.decision` — the MAPE-K decision framework the self-* engines run on.

The paper's self-* engines (self-configuration, self-optimization,
self-protection, §V) are one MAPE-K loop with different control laws.
This package holds the shared parts, so alternative decision techniques
are drop-in comparable (RDMSim, arXiv:2105.01978, is the exemplar; the
SEAMS survey, arXiv:2103.11481, supplies the quality metrics the
scorecard computes):

- **sensors** — :class:`SignalRef`: a typed reference to one windowed
  statistic, resolved through the introspection
  :class:`~repro.introspection.query.QueryEngine`;
- **actuators** — :class:`Action`: a typed, costed, applicable
  adaptation step;
- **planners** — the :class:`Planner` interface plus four interchangeable
  implementations (threshold, marginal utility, hill climbing,
  epsilon-greedy bandit), all scored uniformly by the
  :class:`~repro.introspection.quality.AdaptationScorecard`;
- **arbitration** — the :class:`Arbiter`: priority bands over conserved
  :class:`ResourceLedger`\\ s, so loops competing for one budget (cache
  bytes vs. provider pool memory) can never jointly overspend it.

The loop that wires them together is
:class:`~repro.adaptation.controller.ControlLoop`: its ``step`` runs an
engine's ``plan``, funds each yielded action through the arbiter,
applies it and journals it through the standard provenance path.  The
five engines live under their paper-facing names, one implementation
each: :class:`~repro.adaptation.CacheTuner`,
:class:`~repro.adaptation.ElasticityController`,
:class:`~repro.adaptation.ReplicationManager`,
:class:`~repro.adaptation.RemovalManager` and the self-protection scan
loop of :class:`~repro.security.PolicyManagement`.  They import the
leaf modules they use (only the cache tuner imports the planners);
nothing here imports an engine.
"""

from .. import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "signals": ["SignalRef"],
    "actions": ["Action"],
    "arbiter": ["Arbiter", "ResourceLedger"],
    "planners": ["Planner", "ThresholdPlanner", "MarginalUtilityPlanner",
                 "HillClimbPlanner", "EpsilonGreedyPlanner", "make_planner"],
})
