"""Scenario & adversary suite: accuracy under drift, bursts and attacks.

The registry (:mod:`repro.scenarios.registry`) names seeded,
deterministic stream scenarios — benign non-stationarity and white-box
adversaries against Space Saving's eviction policy.  The runner
(:mod:`repro.scenarios.runner`) counts any scenario on any registered
backend and scores it against exact ground truth; the fuzzer
(:mod:`repro.scenarios.fuzzer`) composes scenarios randomly under seeds
and shrinks any failure to a minimal reproducer with schedcheck's ddmin.

See docs/scenarios.md for the full tour.
"""

from repro.scenarios.adversaries import (
    ATTACK_KEY_BASE,
    eviction_poison_stream,
    hot_key_flood_stream,
)
from repro.scenarios.audit import (
    AccuracyReport,
    hits_at_k,
    score_accuracy,
    score_sketch_accuracy,
    selfcheck,
    true_top_k,
)
from repro.scenarios.fuzzer import (
    LANES,
    FuzzFailure,
    FuzzReport,
    check_stream,
    fuzz,
)
from repro.scenarios.registry import (
    SCENARIOS,
    Scenario,
    ScenarioParams,
    build_stream,
    get_scenario,
)
from repro.scenarios.runner import ScenarioRun, run_scenario

__all__ = [
    "ATTACK_KEY_BASE",
    "AccuracyReport",
    "FuzzFailure",
    "FuzzReport",
    "LANES",
    "SCENARIOS",
    "Scenario",
    "ScenarioParams",
    "ScenarioRun",
    "build_stream",
    "check_stream",
    "eviction_poison_stream",
    "fuzz",
    "get_scenario",
    "hits_at_k",
    "hot_key_flood_stream",
    "run_scenario",
    "score_accuracy",
    "score_sketch_accuracy",
    "selfcheck",
    "true_top_k",
]
