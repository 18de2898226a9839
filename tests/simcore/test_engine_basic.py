"""Engine unit tests: compute scheduling, cores, accounting."""

import pytest

from repro.errors import SimulationError
from repro.simcore import (
    AtomicCell,
    CacheLine,
    Compute,
    CostModel,
    Engine,
    MachineSpec,
    Mutex,
    Now,
)


def _engine(cores=1, **cost_overrides):
    costs = CostModel().replace(**cost_overrides) if cost_overrides else CostModel()
    return Engine(machine=MachineSpec(cores=cores), costs=costs)


def test_single_thread_compute_makespan():
    engine = _engine()

    def program():
        yield Compute(100)
        yield Compute(50)

    engine.spawn(program())
    result = engine.run()
    assert result.makespan == 150
    assert result.events == 2


def test_two_threads_two_cores_run_in_parallel():
    engine = _engine(cores=2)

    def program():
        yield Compute(1000)

    engine.spawn(program())
    engine.spawn(program())
    result = engine.run()
    assert result.makespan == 1000


def test_two_threads_one_core_serialize_with_context_switches():
    engine = _engine(cores=1)

    def program():
        yield Compute(1000)

    engine.spawn(program())
    engine.spawn(program())
    result = engine.run()
    # 2000 cycles of work plus at least one context switch
    assert result.makespan >= 2000 + CostModel().context_switch


def test_return_value_is_recorded():
    engine = _engine()

    def program():
        yield Compute(1)
        return "answer"

    thread = engine.spawn(program())
    engine.run()
    assert thread.stats.return_value == "answer"


def test_now_effect_returns_current_time():
    engine = _engine()
    seen = []

    def program():
        yield Compute(123)
        seen.append((yield Now()))

    engine.spawn(program())
    engine.run()
    assert seen == [123]


def test_tag_accounting_sums_to_busy_plus_wait():
    engine = _engine()

    def program():
        yield Compute(10, tag="a")
        yield Compute(20, tag="b")
        yield Compute(30, tag="a")

    thread = engine.spawn(program())
    result = engine.run()
    assert thread.stats.accounts["a"].busy == 40
    assert thread.stats.accounts["b"].busy == 20
    assert thread.stats.total_cycles == thread.stats.busy_cycles + thread.stats.wait_cycles


def test_breakdown_fractions_sum_to_one():
    engine = _engine()

    def program():
        yield Compute(25, tag="x")
        yield Compute(75, tag="y")

    engine.spawn(program())
    result = engine.run()
    breakdown = result.breakdown()
    assert sum(breakdown.values()) == pytest.approx(1.0)
    assert breakdown["y"] == pytest.approx(0.75)


def test_throughput_helper():
    engine = _engine()

    def program():
        yield Compute(int(2.4e9))  # one simulated second

    engine.spawn(program())
    result = engine.run()
    assert result.seconds == pytest.approx(1.0)
    assert result.throughput(1000) == pytest.approx(1000.0)


def test_non_effect_yield_raises():
    engine = _engine()

    def program():
        yield 42

    engine.spawn(program())
    with pytest.raises(SimulationError):
        engine.run()


def test_engine_runs_only_once():
    engine = _engine()

    def program():
        yield Compute(1)

    engine.spawn(program())
    engine.run()
    with pytest.raises(SimulationError):
        engine.run()


def test_max_events_guards_against_livelock():
    engine = _engine()

    def forever():
        while True:
            yield Compute(1)

    engine.spawn(forever())
    with pytest.raises(SimulationError):
        engine.run(max_events=100)


def test_atomic_line_contention_serializes():
    """Two cores hammering one line take longer than two private lines."""
    costs = CostModel()

    def run(shared: bool) -> int:
        engine = Engine(machine=MachineSpec(cores=2), costs=costs)
        line = CacheLine()
        cells = (
            [AtomicCell(line=line), AtomicCell(line=line)]
            if shared
            else [AtomicCell(), AtomicCell()]
        )

        def program(cell):
            for _ in range(200):
                yield cell.add(1)

        engine.spawn(program(cells[0]))
        engine.spawn(program(cells[1]))
        return engine.run().makespan

    assert run(shared=True) > run(shared=False)


def test_atomic_results_are_linearized():
    """Concurrent increments never lose updates."""
    engine = _engine(cores=4)
    cell = AtomicCell(0)

    def program():
        for _ in range(100):
            yield cell.add(1)

    for _ in range(4):
        engine.spawn(program())
    engine.run()
    assert cell.peek() == 400


def test_spawn_names_default_and_custom():
    engine = _engine()

    def program():
        yield Compute(1)

    anon = engine.spawn(program())
    named = engine.spawn(program(), name="worker")
    assert anon.name == "thread-0"
    assert named.name == "worker"
    result = engine.run()
    assert set(result.threads) == {"thread-0", "worker"}


def _compute_programs():
    def program():
        for _ in range(2_000):
            yield Compute(20)

    return program


def _atomic_programs():
    cell = AtomicCell(0)

    def program():
        for _ in range(2_000):
            yield cell.add(1)

    return program


def _mutex_programs():
    mutex = Mutex()

    def program():
        for _ in range(500):
            yield mutex.acquire()
            yield Compute(20)
            yield mutex.release()

    return program


@pytest.mark.parametrize("make_program, events, exact", [
    (_compute_programs, 16_000, True),
    (_atomic_programs, 16_000, True),
    # a blocked acquire may add wake-up events
    (_mutex_programs, 12_000, False),
], ids=["compute", "atomic", "mutex"])
def test_engine_event_counts(make_program, events, exact):
    """8 threads on 4 cores: one dispatched event per effect."""
    engine = _engine(cores=4)
    program = make_program()
    for _ in range(8):
        engine.spawn(program())
    result = engine.run()
    if exact:
        assert result.events == events
    else:
        assert result.events >= events
