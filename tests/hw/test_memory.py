"""Main memory: registration, capacity and lookup."""

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.hw.memory import MainMemory
from repro.hw.spec import DEFAULT_SPEC


class TestMainMemory:
    def test_register_and_get(self):
        mem = MainMemory()
        arr = mem.register("x", np.ones((4, 4)))
        assert mem.get("x") is arr
        assert "x" in mem

    def test_allocate_zeroed(self):
        mem = MainMemory()
        arr = mem.allocate("z", (8,))
        assert np.all(arr == 0)

    def test_duplicate_name_rejected(self):
        mem = MainMemory()
        mem.allocate("x", (4,))
        with pytest.raises(SimulationError):
            mem.allocate("x", (4,))

    def test_capacity_enforced(self):
        mem = MainMemory()
        too_big = DEFAULT_SPEC.memory_bytes // 8 + 1
        # A broadcast view reports the full nbytes without allocating it.
        huge = np.broadcast_to(np.zeros(1), (too_big,))
        with pytest.raises(SimulationError):
            mem.register("huge", huge)

    def test_allocate_checks_capacity_first(self):
        mem = MainMemory()
        with pytest.raises(SimulationError):
            mem.allocate("huge", (DEFAULT_SPEC.memory_bytes // 8 + 1,))
        assert mem.bytes_used == 0 and "huge" not in mem

    def test_free_releases_bytes(self):
        mem = MainMemory()
        mem.allocate("x", (1024,))
        used = mem.bytes_used
        assert used == 1024 * 8
        mem.free("x")
        assert mem.bytes_used == 0
        assert "x" not in mem

    def test_free_unknown_raises(self):
        with pytest.raises(SimulationError):
            MainMemory().free("ghost")

    def test_get_unknown_raises(self):
        with pytest.raises(SimulationError):
            MainMemory().get("ghost")
