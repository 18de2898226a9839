"""Sequential frequency-counting algorithms and the stream query model.

The star of the package is :class:`~repro.core.space_saving.SpaceSaving`
on the :class:`~repro.core.stream_summary.StreamSummary` structure — the
algorithm the paper adapts into the CoTS framework.  The siblings
(Lossy Counting, Misra-Gries, Sticky Sampling) are the related-work
baselines of Sections 1–2; Count-Min, the NumPy one, is imported from
:mod:`repro.core.sketches` so that importing this package loads no NumPy.
"""

from repro.core.counters import (
    CounterEntry,
    Element,
    ExactCounter,
    FrequencyCounter,
)
from repro.core.lossy_counting import LossyCounting
from repro.core.merge import hierarchical_merge, merge_schedule, merge_space_saving
from repro.core.misra_gries import MisraGries
from repro.core.queries import (
    FrequentSetQuery,
    IntervalSchedule,
    PointFrequentQuery,
    PointTopKQuery,
    Query,
    ScheduledAnswer,
    TopKSetQuery,
    answer,
    answer_all,
    drive,
)
from repro.core.space_saving import SpaceSaving
from repro.core.sticky_sampling import StickySampling
from repro.core.stream_summary import StreamSummary, SummaryBucket, SummaryNode

__all__ = [
    "CounterEntry",
    "Element",
    "ExactCounter",
    "FrequencyCounter",
    "FrequentSetQuery",
    "IntervalSchedule",
    "LossyCounting",
    "MisraGries",
    "PointFrequentQuery",
    "PointTopKQuery",
    "Query",
    "ScheduledAnswer",
    "SpaceSaving",
    "StickySampling",
    "StreamSummary",
    "SummaryBucket",
    "SummaryNode",
    "TopKSetQuery",
    "answer",
    "answer_all",
    "drive",
    "hierarchical_merge",
    "merge_schedule",
    "merge_space_saving",
]
