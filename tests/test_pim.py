"""Tests for the PIM platform simulator."""

from __future__ import annotations

import copy
import random
import sys

import pytest

from repro.pim import (
    CostModel,
    ExecutionStats,
    LocalMemory,
    MemoryCapacityError,
    PIMSystem,
    UPMEM_FULL,
    UPMEM_RANK,
)


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
def test_presets_module_counts():
    assert UPMEM_RANK.num_modules == 64
    assert UPMEM_FULL.num_modules == 2048


def test_with_modules_returns_modified_copy():
    model = CostModel().with_modules(8)
    assert model.num_modules == 8
    assert CostModel().num_modules == 64
    with pytest.raises(ValueError):
        CostModel().with_modules(0)


def test_pim_times_scale_linearly():
    model = CostModel()
    assert model.pim_stream_time(0) == 0.0
    assert model.pim_stream_time(2000) == pytest.approx(2 * model.pim_stream_time(1000))
    assert model.pim_random_access_time(10) == pytest.approx(
        10 * model.pim_random_access_latency
    )
    assert model.pim_compute_time(4) == pytest.approx(4 * model.pim_item_cost)


def test_host_random_access_depends_on_working_set():
    model = CostModel()
    cached = model.host_random_access_time(100, working_set_bytes=1024)
    uncached = model.host_random_access_time(100, working_set_bytes=model.host_llc_bytes * 4)
    assert uncached > cached
    assert cached == pytest.approx(100 * model.host_cache_access_latency)
    assert uncached == pytest.approx(100 * model.host_random_access_latency)


def test_ipc_is_more_expensive_than_cpc():
    model = CostModel()
    assert model.ipc_time(10_000) > 2 * model.cpc_time(10_000)


def test_describe_contains_key_parameters():
    description = CostModel().describe()
    assert description["num_modules"] == 64
    assert "cpc_bandwidth" in description


# ----------------------------------------------------------------------
# Local memory
# ----------------------------------------------------------------------
def test_local_memory_allocation_and_free():
    memory = LocalMemory(1000)
    memory.allocate(600)
    assert memory.used_bytes == 600
    assert memory.available_bytes == 400
    assert memory.utilization == pytest.approx(0.6)
    memory.free(100)
    assert memory.used_bytes == 500
    memory.reset()
    assert memory.used_bytes == 0


def test_local_memory_overflow_raises():
    memory = LocalMemory(100)
    memory.allocate(90)
    with pytest.raises(MemoryCapacityError) as info:
        memory.allocate(20)
    assert info.value.requested == 20
    assert info.value.available == 10


def test_local_memory_invalid_arguments():
    with pytest.raises(ValueError):
        LocalMemory(0)
    memory = LocalMemory(10)
    with pytest.raises(ValueError):
        memory.allocate(-1)
    with pytest.raises(ValueError):
        memory.free(5)


# ----------------------------------------------------------------------
# System / operation accounting
# ----------------------------------------------------------------------
def test_phase_pim_time_is_max_over_modules():
    system = PIMSystem(CostModel(num_modules=4))
    op = system.begin_operation()
    with op.phase("work"):
        op.module(0).process_items(1000)
        op.module(1).process_items(4000)
    stats = op.finish()
    expected = system.cost_model.pim_compute_time(4000)
    assert stats.pim_time == pytest.approx(expected)
    assert stats.phase_pim_times == [pytest.approx(expected)]


def test_phases_accumulate_sequentially():
    system = PIMSystem(CostModel(num_modules=2))
    op = system.begin_operation()
    with op.phase("a"):
        op.module(0).process_items(100)
    with op.phase("b"):
        op.module(1).process_items(100)
    stats = op.finish()
    assert stats.pim_time == pytest.approx(2 * system.cost_model.pim_compute_time(100))


def test_channel_times_and_counters():
    system = PIMSystem(CostModel(num_modules=2))
    op = system.begin_operation()
    with op.phase("comm"):
        op.cpc_transfer(1_000_000, num_transfers=1)
        op.ipc_transfer(500_000)
    stats = op.finish()
    assert stats.cpc.bytes_moved == 1_000_000
    assert stats.ipc.bytes_moved == 500_000
    assert stats.cpc_time > 0
    assert stats.ipc_time > system.cost_model.cpc_time(500_000)
    assert stats.total_time == pytest.approx(
        stats.host_time + stats.cpc_time + stats.ipc_time + stats.pim_time
    )


def test_host_charges_accumulate():
    system = PIMSystem(CostModel(num_modules=1))
    op = system.begin_operation()
    with op.phase("host"):
        op.host.stream_bytes(10_000)
        op.host.random_accesses(10, working_set_bytes=1 << 30)
        op.host.process_items(100)
    stats = op.finish()
    model = system.cost_model
    expected = (
        model.host_sequential_time(10_000)
        + model.host_random_access_time(10, 1 << 30)
        + model.host_compute_time(100)
    )
    assert stats.host_time == pytest.approx(expected)


def test_nested_phase_and_finish_guards():
    system = PIMSystem(CostModel(num_modules=1))
    op = system.begin_operation()
    with op.phase("outer"):
        with pytest.raises(RuntimeError):
            with op.phase("inner"):
                pass
    op.finish()
    with pytest.raises(RuntimeError):
        with op.phase("after finish"):
            pass


def test_stats_merge_adds_components():
    a = ExecutionStats(host_time=1.0, cpc_time=2.0)
    b = ExecutionStats(ipc_time=3.0, pim_time=4.0)
    b.add_counter("results", 7)
    a.merge(b)
    assert a.total_time == pytest.approx(10.0)
    assert a.counters["results"] == 7


def test_counters_and_reports():
    system = PIMSystem(CostModel(num_modules=3))
    op = system.begin_operation()
    with op.phase("w"):
        op.module(2).process_items(5)
        system.modules[2].memory  # touch attribute, no allocation
    op.add_counter("queries", 2)
    stats = op.finish()
    assert stats.counters["queries"] == 2
    assert system.load_report()[2] == 5
    assert len(system.memory_utilization()) == 3


def test_stats_copy_equals_deepcopy_and_shares_nothing():
    stats = ExecutionStats(host_time=1.5, cpc_time=0.25, ipc_time=0.125, pim_time=2.0)
    stats.cpc.record(4096, 2)
    stats.ipc.record(512)
    stats.phase_pim_times.extend([0.5, 1.5])
    stats.add_counter("results", 7)
    duplicate = stats.copy()
    assert duplicate == copy.deepcopy(stats) == stats
    # Stamping into the copy (what a result-cache hit's caller does)
    # must not reach the original (the cached entry).
    duplicate.add_counter("epoch", 3)
    duplicate.phase_pim_times.append(9.0)
    duplicate.cpc.record(1)
    duplicate.ipc.record(1)
    assert stats.counters == {"results": 7}
    assert stats.phase_pim_times == [0.5, 1.5]
    assert (stats.cpc.bytes_moved, stats.ipc.bytes_moved) == (4096, 512)


# ----------------------------------------------------------------------
# Charges belong to a phase, and only modules 0 .. P-1 can be charged
# ----------------------------------------------------------------------
@pytest.mark.parametrize("module_id", [-1, 4])
def test_module_id_out_of_range_raises(module_id):
    """``HOST_PARTITION`` (-1) must not land on the last module."""
    system = PIMSystem(CostModel(num_modules=4))
    op = system.begin_operation()
    with op.phase("work"):
        with pytest.raises(IndexError):
            op.module(module_id).process_items(10)
    op.finish()
    assert system.load_report() == [0, 0, 0, 0]


def test_charge_outside_a_phase_raises():
    system = PIMSystem(CostModel(num_modules=2))
    idle = system.capture_lifetime()
    op = system.begin_operation()

    def charges():
        yield lambda: op.host.process_items(5)
        yield lambda: op.module(0).process_items(5)
        yield lambda: op.cpc_transfer(64)
        yield lambda: op.ipc_transfer(64)

    for charge in charges():  # before the first phase
        with pytest.raises(RuntimeError, match="no phase is open"):
            charge()
    with op.phase("work"):
        op.host.process_items(1)
    for charge in charges():  # after the last phase
        with pytest.raises(RuntimeError, match="no phase is open"):
            charge()
    stats = op.finish()
    assert stats.host_time == system.cost_model.host_compute_time(1)
    expected = dict(idle, host=[0, 0, 1])
    assert system.capture_lifetime() == expected


def test_raising_phase_still_folds_its_charges():
    system = PIMSystem(CostModel(num_modules=2))
    op = system.begin_operation()
    with pytest.raises(KeyError):
        with op.phase("doomed"):
            op.module(1).process_items(40)
            op.cpc_transfer(128)
            raise KeyError("boom")
    with op.phase("next"):  # the failed phase was closed
        pass
    stats = op.finish()
    assert stats.phase_pim_times == [system.cost_model.pim_compute_time(40), 0.0]
    assert stats.cpc.bytes_moved == 128
    assert system.load_report() == [0, 40]
    assert system.capture_lifetime()["cpc"] == [128, 1]


# ----------------------------------------------------------------------
# Differential: sparse per-operation accounting vs a dense reference
# ----------------------------------------------------------------------
class _Boom(Exception):
    pass


class DenseReference:
    """The accounting this package had when phase state lived on the
    platform: every phase zeroes a counter set for each of the ``P``
    modules, prices all ``P`` at its close, and every charge is also
    written to a lifetime counter.  Scripts are lists of phases; a phase
    is a list of charges, ``("raise",)`` aborting the rest of it."""

    def __init__(self, model: CostModel) -> None:
        self.model = model
        self.modules = [[0, 0, 0, 0] for _ in range(model.num_modules)]
        self.host = [0, 0, 0]
        self.cpc = [0, 0]
        self.ipc = [0, 0]

    def run(self, script) -> ExecutionStats:
        model = self.model
        stats = ExecutionStats()
        for phase in script:
            modules = [[0, 0, 0, 0] for _ in range(model.num_modules)]
            host = [0, 0, 0]
            working_set = 0
            cpc = [0, 0]
            ipc = [0, 0]
            for charge in phase:
                kind = charge[0]
                if kind == "raise":
                    break
                if kind == "module":
                    _, module_id, column, amount = charge
                    modules[module_id][column] += amount
                    self.modules[module_id][column] += amount
                elif kind == "host":
                    _, column, amount, charged_working_set = charge
                    host[column] += amount
                    self.host[column] += amount
                    working_set = max(working_set, charged_working_set)
                else:
                    _, num_bytes, transfers = charge
                    channels = (cpc, self.cpc) if kind == "cpc" else (ipc, self.ipc)
                    for counters in channels:  # this phase's and the lifetime's
                        counters[0] += num_bytes
                        counters[1] += transfers
            module_times = []
            for streamed, accesses, items, kernels in modules:
                time = model.pim_stream_time(streamed)
                time += model.pim_random_access_time(accesses)
                time += model.pim_compute_time(items)
                time += kernels * model.pim_launch_latency
                module_times.append(time)
            pim_time = max(module_times)
            stats.pim_time += pim_time
            stats.phase_pim_times.append(pim_time)
            time = model.host_sequential_time(host[0])
            time += model.host_random_access_time(host[1], working_set)
            time += model.host_compute_time(host[2])
            stats.host_time += time
            if cpc != [0, 0]:
                stats.cpc_time += model.cpc_time(*cpc)
            if ipc != [0, 0]:
                stats.ipc_time += model.ipc_time(*ipc)
            stats.cpc.record(*cpc)
            stats.ipc.record(*ipc)
        return stats

    def capture_lifetime(self) -> dict:
        return {
            "modules": [list(row) for row in self.modules],
            "host": list(self.host),
            "cpc": list(self.cpc),
            "ipc": list(self.ipc),
        }


_MODULE_CHARGES = ("stream_bytes", "random_accesses", "process_items", "launch_kernel")
_HOST_CHARGES = ("stream_bytes", "random_accesses", "process_items")


def random_script(rng: random.Random, num_modules: int, phases=None):
    llc = CostModel().host_llc_bytes
    script = []
    for _ in range(rng.randint(0, 6) if phases is None else phases):
        phase = []
        for _ in range(rng.choice((0, 0, 1, 3, 8, 20))):
            kind = rng.choice(("module", "module", "host", "cpc", "ipc"))
            if kind == "module":
                column = rng.randrange(4)
                amount = 1 if column == 3 else rng.randint(0, 100_000)
                phase.append(("module", rng.randrange(num_modules), column, amount))
            elif kind == "host":
                column = rng.randrange(3)
                working_set = rng.choice((0, 4096, llc, llc + 1, 8 * llc)) if column == 1 else 0
                phase.append(("host", column, rng.randint(0, 100_000), working_set))
            else:
                phase.append((kind, rng.randint(0, 1 << 20), rng.randint(0, 3)))
        if phase and rng.random() < 0.15:
            phase.insert(rng.randrange(len(phase) + 1), ("raise",))
        script.append(phase)
    return script


def charge(op, entry) -> None:
    kind = entry[0]
    if kind == "raise":
        raise _Boom
    if kind == "module":
        _, module_id, column, amount = entry
        method = getattr(op.module(module_id), _MODULE_CHARGES[column])
        if column == 3:
            method()  # launch_kernel
        else:
            method(amount)
    elif kind == "host":
        _, column, amount, working_set = entry
        method = getattr(op.host, _HOST_CHARGES[column])
        if column == 1:
            method(amount, working_set)  # random_accesses
        else:
            method(amount)
    elif kind == "cpc":
        op.cpc_transfer(entry[1], num_transfers=entry[2])
    else:
        op.ipc_transfer(entry[1], num_transfers=entry[2])


def run_phase(op, phase) -> None:
    try:
        with op.phase("p"):
            for entry in phase:
                charge(op, entry)
    except _Boom:
        pass


def run_script(system: PIMSystem, script) -> ExecutionStats:
    op = system.begin_operation()
    for phase in script:
        run_phase(op, phase)
    return op.finish()


def test_accounting_matches_dense_reference_on_random_scripts():
    rng = random.Random(20241003)
    saw_raise = saw_empty = False
    for _ in range(200):
        model = CostModel(num_modules=rng.choice((1, 2, 5, 16)))
        system, reference = PIMSystem(model), DenseReference(model)
        for _ in range(rng.randint(1, 3)):  # several operations per platform
            script = random_script(rng, model.num_modules)
            saw_raise |= any(("raise",) in phase for phase in script)
            saw_empty |= [] in script
            # Dataclass equality: every float compared exactly.
            assert run_script(system, script) == reference.run(script)
            assert system.capture_lifetime() == reference.capture_lifetime()
    assert saw_raise and saw_empty


def test_interleaved_operations_on_one_platform_are_exact():
    """An open phase is reachable only from its operation, so two
    operations whose phases overlap on one platform account exactly as
    the same two run back to back."""
    rng = random.Random(7)
    model = CostModel(num_modules=4)

    def script():
        return [
            [entry for entry in phase if entry != ("raise",)]
            for phase in random_script(rng, 4, phases=5)
        ]

    first, second = script(), script()

    sequential = PIMSystem(model)
    expected = (run_script(sequential, first), run_script(sequential, second))

    shared = PIMSystem(model)
    op_a, op_b = shared.begin_operation(), shared.begin_operation()
    for charges_a, charges_b in zip(first, second):
        half_a, half_b = len(charges_a) // 2, len(charges_b) // 2
        phase_a, phase_b = op_a.phase("a"), op_b.phase("b")
        phase_a.__enter__()
        for entry in charges_a[:half_a]:
            charge(op_a, entry)
        phase_b.__enter__()  # B opens inside A's phase ...
        for entry in charges_b[:half_b]:
            charge(op_b, entry)
        for entry in charges_a[half_a:]:
            charge(op_a, entry)
        phase_a.__exit__(None, None, None)  # ... and outlives it
        for entry in charges_b[half_b:]:
            charge(op_b, entry)
        phase_b.__exit__(None, None, None)
    assert (op_a.finish(), op_b.finish()) == expected
    assert shared.capture_lifetime() == sequential.capture_lifetime()


def _profiled_calls(function) -> int:
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls


def test_bookkeeping_does_not_scale_with_the_platform():
    """No statement runs once per module per phase: the interpreter makes
    the same number of calls at 4 modules and at the paper's 2 048."""

    def operation(model: CostModel):
        def run() -> None:
            op = PIMSystem(model).begin_operation()
            for name in ("dispatch", "smxm 1", "smxm 2", "mwait"):
                with op.phase(name):
                    op.module(3).process_items(10)
            op.finish()

        return run

    small = _profiled_calls(operation(CostModel(num_modules=4)))
    full = _profiled_calls(operation(UPMEM_FULL))
    assert small == full


# ----------------------------------------------------------------------
# Totals: capture / restore / absorb
# ----------------------------------------------------------------------
def test_totals_round_trip_and_absorb():
    rng = random.Random(99)
    model = CostModel(num_modules=6)
    script_a, script_b = random_script(rng, 5), random_script(rng, 5)

    charged_a, charged_b, both = PIMSystem(model), PIMSystem(model), PIMSystem(model)
    run_script(charged_a, script_a)
    run_script(charged_b, script_b)
    run_script(both, script_a)
    run_script(both, script_b)

    captured = charged_a.capture_lifetime()
    restored = PIMSystem(model)
    restored.restore_lifetime(captured)
    assert restored.capture_lifetime() == captured
    assert restored.load_report() == charged_a.load_report()
    run_script(restored, script_b)  # a restored platform keeps counting
    assert restored.capture_lifetime() == both.capture_lifetime()

    merged = PIMSystem(model)
    merged.absorb_lifetime(captured)
    merged.absorb_lifetime(charged_b.capture_lifetime())
    assert merged.capture_lifetime() == both.capture_lifetime()
    # Module 5 is never charged (the scripts use 0 .. 4).
    assert both.load_report()[5] == 0
    assert both.capture_lifetime()["modules"][5] == [0, 0, 0, 0]
