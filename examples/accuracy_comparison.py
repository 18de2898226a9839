#!/usr/bin/env python
"""Accuracy shoot-out across the frequency-counting family.

A Cormode-&-Hadjieleftheriou-style comparison (the paper's reference [5])
of every algorithm in this package on the same streams: counter-based
(Space Saving, Lossy Counting, Misra-Gries, Sticky Sampling) and
sketch-based (Count-Min), measured on

* top-k recall,
* frequent-elements precision/recall at phi = 0.5%,
* average relative error over the true top-50.

    python examples/accuracy_comparison.py
"""

from repro.analysis import (
    average_relative_error,
    frequent_accuracy,
    top_k_accuracy,
)
from repro.core import (
    ExactCounter,
    LossyCounting,
    MisraGries,
    SpaceSaving,
    StickySampling,
)
from repro.core.sketches import CountMinSketch
from repro.workloads import zipf_stream

PHI = 0.005
TOP_K = 20
BUDGET = 200  # counters / heap entries for every algorithm


def build_algorithms():
    return [
        ("SpaceSaving", SpaceSaving(capacity=BUDGET)),
        ("LossyCounting", LossyCounting(epsilon=1.0 / BUDGET)),
        ("MisraGries", MisraGries(k=BUDGET)),
        ("StickySampling",
         StickySampling(support=PHI, epsilon=PHI / 2, seed=1)),
        ("CountMin",
         CountMinSketch(epsilon=1.0 / BUDGET, delta=0.01,
                        track_candidates=BUDGET, seed=1)),
    ]


def main() -> None:
    header = (f"{'algorithm':15s} {'alpha':>5s} {'topk-recall':>12s} "
              f"{'freq-prec':>10s} {'freq-rec':>9s} {'avg-rel-err':>12s}")
    print(header)
    print("-" * len(header))
    for alpha in (1.1, 1.5, 2.0):
        stream = zipf_stream(60_000, 30_000, alpha, seed=13)
        exact = ExactCounter()
        exact.process_many(stream)
        for name, algo in build_algorithms():
            algo.process_many(stream)
            entries = algo.entries()
            topk = top_k_accuracy(entries, exact, k=TOP_K)
            freq = frequent_accuracy(algo.frequent(PHI), exact, phi=PHI)
            err = average_relative_error(entries, exact, top=50)
            print(f"{name:15s} {alpha:5.1f} {topk.recall:12.2f} "
                  f"{freq.precision:10.2f} {freq.recall:9.2f} {err:12.3f}")
        print()

    print("reading: counter-based techniques hold high recall at a small "
          "memory budget;\nsketches pay with noisier estimates at the same "
          "budget — the trade-off the paper's §2 describes.")


if __name__ == "__main__":
    main()
