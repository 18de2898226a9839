"""Shared experiment plumbing: stream caching, result records, claims."""

from __future__ import annotations

import dataclasses
import inspect
from typing import Any, Callable, Dict, List, Tuple

from repro.experiments.config import ExperimentScale
from repro.workloads.zipf import ZipfStreamSpec


@dataclasses.dataclass
class ExperimentResult:
    """One regenerated table or figure."""

    experiment_id: str              #: e.g. "fig3a", "table2"
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]]
    notes: str = ""

    def column_values(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        return [row.get(name) for row in self.rows]

    def filtered(self, **criteria: Any) -> List[Dict[str, Any]]:
        """Rows matching all the given column=value criteria."""
        return [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in criteria.items())
        ]


@dataclasses.dataclass(frozen=True)
class Claim:
    """One shape the paper reports, as a predicate over a regenerated result.

    ``holds`` is named after the shape and its docstring states it; a
    ``strict_only`` claim needs streams long enough for the asymptotic
    shape to form and is skipped at a non-strict scale (``tiny``).
    """

    experiment_id: str
    figure: str                     #: e.g. "Fig. 3(a)", "Table 2"
    holds: Callable[[ExperimentResult, ExperimentScale], bool]
    strict_only: bool = False

    @property
    def name(self) -> str:
        return self.holds.__name__

    @property
    def text(self) -> str:
        return " ".join((inspect.getdoc(self.holds) or self.name).split())

    def verdict(self, result: ExperimentResult, scale: ExperimentScale) -> str:
        """``"pass"``, ``"fail"`` or ``"skip"`` for this claim on ``result``."""
        if self.strict_only and not scale.strict:
            return "skip"
        return "pass" if self.holds(result, scale) else "fail"


class StreamCache:
    """Materialized zipfian streams, keyed by their spec.

    Experiments reuse the same stream across thread counts (like the
    paper re-running one data set), so caching saves most of the
    generation time in sweeps.
    """

    def __init__(self) -> None:
        self._cache: Dict[Tuple[int, int, float, int], List[int]] = {}

    def get(
        self, length: int, alphabet: int, alpha: float, seed: int
    ) -> List[int]:
        """Fetch (or generate) the stream for these parameters."""
        key = (length, alphabet, alpha, seed)
        stream = self._cache.get(key)
        if stream is None:
            stream = ZipfStreamSpec(
                length=length, alphabet=alphabet, alpha=alpha, seed=seed
            ).elements()
            self._cache[key] = stream
        return stream

    def clear(self) -> None:
        """Drop all cached streams."""
        self._cache.clear()


#: module-level cache shared by all experiment drivers
STREAMS = StreamCache()
