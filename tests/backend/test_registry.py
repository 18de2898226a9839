"""The engine table: one validated :class:`EngineSpec` per engine."""

import math

import pytest

from repro.backend import BACKEND_NAMES, EngineSpec, create_backend
from repro.errors import ConfigurationError

BELOW_ONE = math.nextafter(1.0, 0.0)


@pytest.mark.parametrize(
    "field, bad, boundary",
    [
        ("name", "nope", BACKEND_NAMES[-1]),
        ("capacity", 0, 1),
        ("threads", 0, 1),
        ("workers", 0, 1),
        ("epsilon", 0.0, math.ulp(0.0)),
        ("epsilon", 1.0, BELOW_ONE),
        ("epsilon", float("nan"), BELOW_ONE),
        ("delta", 0.0, math.ulp(0.0)),
        ("delta", 1.0, BELOW_ONE),
        ("seed", 1.5, None),
        ("seed", "7", -1),
    ],
)
def test_engine_spec_rejects_the_first_bad_value(field, bad, boundary):
    """Every field, whatever the engine: the first value past its limit
    raises ``ConfigurationError`` naming the field; the limit itself is
    accepted."""
    with pytest.raises(ConfigurationError, match=rf"^{field} "):
        EngineSpec(**{field: bad})
    assert getattr(EngineSpec(**{field: boundary}), field) == boundary


def test_create_backend_takes_a_name_and_knobs_or_a_spec():
    """The keyword form builds the same spec the spec form does, knobs
    left out keep the spec's defaults, and a bad knob is refused before
    anything is built."""
    by_name = create_backend("sequential", capacity=8)
    by_spec = create_backend(EngineSpec(capacity=8))
    try:
        for backend in (by_name, by_spec):
            backend.ingest(list(range(20)))
            assert backend.snapshot().error_bound == 20 // 8
    finally:
        by_name.close()
        by_spec.close()
    with pytest.raises(ConfigurationError, match="^workers "):
        create_backend("mp-shm", workers=0)
    with pytest.raises(ConfigurationError, match="unknown backend"):
        create_backend("gpu")
