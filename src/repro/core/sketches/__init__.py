"""Sketch-based frequency estimators (the paper's related work, §2).

Sketch techniques represent the whole stream in sub-linear space but pay
a per-element cost of several hash evaluations and give weaker per-element
bounds than the counter-based family — the trade-off Section 2 describes.
They are included as accuracy/throughput baselines.
"""

from repro.core.sketches.count_min import CountMinSketch

__all__ = ["CountMinSketch"]
