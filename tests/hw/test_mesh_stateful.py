"""Stateful (rule-based) fuzzing of the register-communication protocol.

Hypothesis drives random sequences of puts, broadcasts and gets against
the mesh while an independent reference model tracks what every transfer
buffer should contain; any divergence (ordering, payload, occupancy) or
missed protocol error fails the test.
"""

from collections import deque

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.common.errors import BusProtocolError
from repro.hw.mesh import CPEMesh
from repro.hw.spec import DEFAULT_SPEC

MESH_N = 3
SPEC = DEFAULT_SPEC.shrunk(MESH_N)

coords = st.tuples(
    st.integers(min_value=0, max_value=MESH_N - 1),
    st.integers(min_value=0, max_value=MESH_N - 1),
)


class MeshProtocolMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.mesh = CPEMesh(SPEC)
        self.model = {
            (r, c): deque() for r in range(MESH_N) for c in range(MESH_N)
        }
        self.counter = 0

    def _payload(self):
        self.counter += 1
        return np.array([float(self.counter)])

    @rule(src=coords, dst=coords)
    def put(self, src, dst):
        payload = self._payload()
        legal = src != dst and (src[0] == dst[0] or src[1] == dst[1])
        room = len(self.model[dst]) < SPEC.transfer_buffer_depth
        if legal and room:
            self.mesh.put(src, dst, payload)
            self.model[dst].append(float(payload[0]))
        else:
            try:
                self.mesh.put(src, dst, payload)
            except BusProtocolError:
                pass
            else:
                raise AssertionError(
                    f"put {src}->{dst} should have been rejected "
                    f"(legal={legal}, room={room})"
                )

    @rule(src=coords)
    def row_broadcast(self, src):
        receivers = [
            (src[0], c) for c in range(MESH_N) if c != src[1]
        ]
        payload = self._payload()
        if all(
            len(self.model[r]) < SPEC.transfer_buffer_depth for r in receivers
        ):
            self.mesh.row_broadcast(src, payload)
            for r in receivers:
                self.model[r].append(float(payload[0]))
        else:
            try:
                self.mesh.row_broadcast(src, payload)
            except BusProtocolError:
                # A full receiver rejected the broadcast mid-way; resync the
                # model with the mesh's actual buffer contents.
                for r in receivers:
                    self.model[r] = deque(
                        float(np.asarray(p)[0])
                        for p in self.mesh._buffers[r]._fifo
                    )

    @rule(who=coords)
    def get(self, who):
        if self.model[who]:
            expected = self.model[who].popleft()
            got = self.mesh.get(who)
            assert float(np.asarray(got)[0]) == expected
        else:
            try:
                self.mesh.get(who)
            except BusProtocolError:
                pass
            else:
                raise AssertionError(f"get on empty buffer {who} should raise")

    @invariant()
    def occupancy_matches(self):
        for who, expected in self.model.items():
            assert self.mesh.pending(who) == len(expected)


MeshProtocolMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
TestMeshProtocol = MeshProtocolMachine.TestCase
