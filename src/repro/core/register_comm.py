"""Register-communication GEMM over the CPE mesh (Section V-A, Fig. 3).

The LDM-resident GEMM ``Do += W . Di`` is distributed over the 8x8 mesh with
no duplicated data:

* ``W`` (No x Ni) is split into an 8x8 grid of blocks; CPE(i, k) owns
  ``W[i, k]`` (output-channel block i, input-channel block k);
* ``Di`` (Ni x M) likewise; CPE(k, j) owns ``Di[k, j]`` (input-channel
  block k, column block j — columns are batch x output-pixel);
* CPE(i, j) accumulates ``Do[i, j] = sum_k W[i, k] . Di[k, j]``.

At step ``k`` every CPE in mesh column ``k`` broadcasts its ``W`` block
along its *row* bus and every CPE in mesh row ``k`` broadcasts its ``Di``
block along its *column* bus; each CPE multiplies the pair it received (or
owns) into its accumulator.  After ``mesh_size`` steps each CPE holds its
final ``Do`` block — the schedule of Fig. 3.

Two execution modes share that schedule:

* ``mode="full"`` really moves the blocks through the
  :class:`~repro.hw.mesh.CPEMesh` transfer buffers (so protocol violations
  surface as :class:`~repro.common.errors.BusProtocolError`) and really
  multiplies them on each CPE (so the result is checked against plain
  ``W @ D``).
* ``mode="session"`` is the validated fast path: the *first* multiply of
  each signature runs the full protocol simulation and cross-checks
  candidate vectorized implementations against it — one contiguous
  ``w @ d`` GEMM, one ``(No x kb) @ (kb x M)`` GEMM per step of the
  schedule, and the per-step batched block GEMM over contiguous block
  copies.  The first candidate that is *bit-identical* to the simulation
  is certified for that signature; later multiplies of the signature
  execute it directly, with the identical bus/CPE statistics applied
  analytically.

:meth:`MeshGemm.multiply` also takes a *stack* of ``T`` operands
``(T, Ni, M)`` that share one ``W``, the walk's layout: one filter slice
against many tile windows.  Each pair is one Fig. 3 schedule.  On the
fast path the certified strategy runs once over all ``T * M`` columns,
side by side, and the statistics of all ``T`` schedules are posted in one
bulk update, which is what makes many tiny tile GEMMs cheap.  The
signature is the operand shapes with ``T`` included, so a strategy is
certified at the width it runs at.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import PlanError, SimulationError
from repro.hw.mesh import CPEMesh
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC


def split_grid(matrix: np.ndarray, n: int) -> List[List[np.ndarray]]:
    """Split a 2-D matrix into an n x n grid of equal blocks."""
    rows, cols = matrix.shape
    if rows % n != 0 or cols % n != 0:
        raise PlanError(
            f"matrix {rows}x{cols} not divisible into {n}x{n} blocks"
        )
    br, bc = rows // n, cols // n
    return [
        [matrix[i * br : (i + 1) * br, j * bc : (j + 1) * bc] for j in range(n)]
        for i in range(n)
    ]


def join_grid(blocks: List[List[np.ndarray]]) -> np.ndarray:
    """Inverse of :func:`split_grid`."""
    return np.block(blocks)


class MeshGemm:
    """Executes distributed GEMMs on a (simulated) CPE mesh.

    ``mode="full"`` simulates the Fig. 3 bus protocol for every multiply;
    ``mode="session"`` verifies the protocol once per operand-shape
    signature and runs subsequent same-shape multiplies on the vectorized
    fast path (identical results, identical statistics, no per-tile LDM
    staging or Python bus loops).  Either mode multiplies a stack of
    operands that share W in one call, pair by pair in stack order; the
    fast path runs one certified strategy over all the stack's columns and
    charges the stack's statistics once.
    """

    MODES = ("full", "session")

    #: Fast-path candidates, fastest first; each multiplies a whole stack
    #: that shares W.  "gemm" is one contiguous ``w @ d`` over all the
    #: stack's columns (bit-identical to the schedule whenever BLAS reduces
    #: the inner dimension in sequential order, e.g. single-block
    #: reductions); "slab" is one ``(No x kb) @ (kb x T*M)`` GEMM per
    #: schedule step over all the columns, accumulated k-major like the
    #: CPEs do, and is exact by construction for depth-1 blocks (kb = 1:
    #: one product per element and step); "blocked" replays each pair's
    #: per-CPE block products on contiguous block copies and is the
    #: general fallback (a one-row or one-column CPE block sends BLAS down
    #: another path than a wide slab does, so only "blocked" matches it).
    STRATEGIES = ("gemm", "slab", "blocked")

    def __init__(
        self,
        mesh: Optional[CPEMesh] = None,
        spec: SW26010Spec = DEFAULT_SPEC,
        mode: str = "full",
        fault_plan=None,
        telemetry=None,
    ):
        if mode not in self.MODES:
            raise PlanError(
                f"unknown MeshGemm mode {mode!r}; expected one of {self.MODES}"
            )
        self.mesh = (
            mesh
            if mesh is not None
            else CPEMesh(spec, fault_plan=fault_plan, telemetry=telemetry)
        )
        self.spec = self.mesh.spec
        self.mode = mode
        #: (W shape, D stack shape) -> certified fast-path strategy name.
        self._verified: Dict[Tuple[Tuple[int, int], Tuple[int, int, int]], str] = {}
        #: Lazily created scratch mesh for certification probes.
        self._probe: Optional["MeshGemm"] = None

    @property
    def verified_signatures(self) -> int:
        """How many (W shape, D stack shape) signatures the session has verified."""
        return len(self._verified)

    def multiply(self, w: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Compute ``w @ d`` by the Fig. 3 register-communication schedule.

        ``w`` is (No x Ni), ``d`` is (Ni x M); both dimensions must divide
        by the mesh size.  Returns the (No x M) product assembled from the
        per-CPE accumulators.

        A stack of ``T`` operands ``d`` (T x Ni x M) that share ``w``
        returns the (T x No x M) stack of products, each bit-identical to
        a single multiply of its pair, with the statistics of ``T`` single
        multiplies.  Full mode runs the pairs' schedules in stack order;
        session mode runs its certified strategy once over all ``T * M``
        columns side by side and returns the products as a view of an
        (No x T x M) array.
        """
        if w.ndim != 2 or d.ndim not in (2, 3):
            raise PlanError(
                "mesh GEMM takes a 2-D W and a 2-D operand or a 3-D stack "
                "of operands that share it"
            )
        if w.shape[1] != d.shape[-2]:
            raise PlanError(f"inner dimensions disagree: {w.shape} @ {d.shape}")
        single = d.ndim == 2
        w = np.asarray(w, dtype=np.float64)
        d = np.asarray(d, dtype=np.float64)
        if single:
            d = d[None]
        if len(d) == 0:
            raise PlanError("mesh GEMM stack is empty")
        n = self.mesh.size
        for rows, cols in (w.shape, d.shape[1:]):
            if rows % n != 0 or cols % n != 0:
                raise PlanError(
                    f"matrix {rows}x{cols} not divisible into {n}x{n} blocks"
                )
        if self.mode != "session":
            result = np.stack([self._multiply_mesh(w, dt) for dt in d])
        else:
            result = self._multiply_session(w, d)
        return result[0] if single else result

    def _multiply_session(self, w: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Session mode for a stack: certify on its first pair if needed.

        The signature is the operand shapes, stack size included: a
        strategy is certified at the width it runs at.
        """
        signature = (w.shape, d.shape)
        strategy = self._verified.get(signature)
        if strategy is not None:
            result = self._fast_multiply(w, d, strategy)
            self._account_fast_path(w, d, len(d))
            return result
        strategy, result = self._certify(w, d)
        self._verified[signature] = strategy
        self._account_fast_path(w, d, len(d) - 1)
        return result

    def _certify(self, w: np.ndarray, d: np.ndarray) -> Tuple[str, np.ndarray]:
        """Pick the fastest strategy that is bit-identical to the protocol.

        The stack's first pair runs the full protocol on this session's
        mesh; its product is the one returned for that pair.  Each
        candidate runs on the whole stack, as it will from now on, and must
        reproduce that product.  Matching on the actual operands alone is
        not sufficient: sparse tiles (e.g. zero-padded borders in backward
        passes) let a strategy with a *different* reduction order agree by
        coincidence.  Each candidate must therefore also reproduce the full
        simulation of a dense synthetic pair, run on a scratch mesh so the
        probe leaves this session's statistics alone.  The pair is both the
        first and the last of a synthetic stack of the same signature, so
        one simulation checks the columns at both ends of the stack's
        width, where BLAS may take edge paths.  Returns the strategy and
        the stack's products.
        """
        verified = self._multiply_mesh(w, d[0])
        probe_rng = np.random.default_rng([0x5EED, *w.shape, *d.shape])
        pw = probe_rng.standard_normal(w.shape)
        pd = probe_rng.standard_normal(d.shape)
        pd[-1] = pd[0]
        if self._probe is None:
            self._probe = MeshGemm(spec=self.spec, mode="full")
        probe_full = self._probe._multiply_mesh(pw, pd[0])
        for candidate in self.STRATEGIES:
            probed = self._fast_multiply(pw, pd, candidate)
            if not (
                np.array_equal(probed[0], probe_full)
                and np.array_equal(probed[-1], probe_full)
            ):
                continue
            result = self._fast_multiply(w, d, candidate)
            if np.array_equal(result[0], verified):
                result[0] = verified
                return candidate, result
        raise SimulationError(
            f"no fast-path strategy reproduces the bus-protocol "
            f"simulation bit-for-bit for signature {(w.shape, d.shape)}"
        )

    def _fast_multiply(self, w: np.ndarray, d: np.ndarray, strategy: str) -> np.ndarray:
        """Execute one certified (or candidate) strategy on a stack.

        ``w`` is (No x Ni) and ``d`` is (T x Ni x M); the products come
        back as a (T x No x M) view of an (No x T x M) array.  Operands are
        normalized to contiguous layout first, the stack's columns side by
        side: the full schedule stages contiguous block copies into LDM,
        and BLAS kernels pick different (bitwise-diverging) code paths for
        strided views.
        """
        t, ni, m = d.shape
        w = np.ascontiguousarray(w)
        columns = np.ascontiguousarray(d.transpose(1, 0, 2)).reshape(ni, t * m)
        if strategy == "gemm":
            product = w @ columns
        elif strategy == "slab":
            product = self._slab_gemm(w, columns)
        else:
            product = self._block_gemm(w, columns, t)
        return product.reshape(-1, t, m).transpose(1, 0, 2)

    # -- full protocol simulation ------------------------------------------

    def _multiply_mesh(self, w: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Move every block through the transfer buffers (Fig. 3 verbatim)."""
        n = self.mesh.size
        w_blocks = split_grid(w, n)
        d_blocks = split_grid(d, n)

        # Stage the blocks into each owner's LDM (real capacity check).
        acc: List[List[np.ndarray]] = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                cpe = self.mesh.cpe(i, j)
                cpe.ldm.reset()
                wb = cpe.ldm.alloc("gemm.W", w_blocks[i][j].shape)
                wb.write(slice(None), w_blocks[i][j])
                db = cpe.ldm.alloc("gemm.D", d_blocks[i][j].shape)
                db.write(slice(None), d_blocks[i][j])
                ab = cpe.ldm.alloc(
                    "gemm.acc", (w_blocks[i][j].shape[0], d_blocks[i][j].shape[1])
                )
                acc[i][j] = ab.data

        for k in range(n):
            # Column k broadcasts W along rows; row k broadcasts D along cols.
            for i in range(n):
                self.mesh.row_broadcast((i, k), self.mesh.cpe(i, k).ldm.get("gemm.W").data)
                self.mesh.cpe(i, k).stats.bus_puts += 1
            for j in range(n):
                self.mesh.col_broadcast((k, j), self.mesh.cpe(k, j).ldm.get("gemm.D").data)
                self.mesh.cpe(k, j).stats.bus_puts += 1
            for i in range(n):
                for j in range(n):
                    cpe = self.mesh.cpe(i, j)
                    # Receive in send order: W (row bus) first, then D.
                    if j == k:
                        w_blk = cpe.ldm.get("gemm.W").data
                    else:
                        w_blk = self.mesh.get((i, j))
                        cpe.stats.bus_gets += 1
                    if i == k:
                        d_blk = cpe.ldm.get("gemm.D").data
                    else:
                        d_blk = self.mesh.get((i, j))
                        cpe.stats.bus_gets += 1
                    cpe.fma_tile(acc[i][j], w_blk, d_blk)
        self.mesh.assert_drained()
        return join_grid(acc)

    # -- vectorized fast path ----------------------------------------------

    def _slab_gemm(self, w: np.ndarray, d: np.ndarray) -> np.ndarray:
        """The schedule's steps as slab GEMMs over all the stack's columns.

        Step ``k`` of Fig. 3 adds ``W[i, k] @ D[k, j]`` to every CPE's
        accumulator; over the whole output that is the slab product
        ``W[:, k] @ D[k, :]``, (No x kb) @ (kb x columns), added k-major
        into a zeroed accumulator exactly as the CPEs add their blocks.
        With depth-1 blocks (kb = 1) each step is one exact product per
        element, so it is bit-identical to every block GEMM; BLAS computes
        it as a depth-2 product whose second term is 0 x 0, which adds
        nothing and runs faster than a broadcast multiply.  Deeper slabs
        match when BLAS reduces kb terms the same way for both shapes,
        which certification checks.
        """
        n = self.mesh.size
        no, ni = w.shape
        kb = ni // n
        if kb == 1:
            w_steps = np.zeros((n, no, 2))
            w_steps[:, :, 0] = w.T
            # D's rows and one zero row after them: step k pairs row k
            # with the zero row, a (2 x columns) view.
            rows = np.empty((n + 1, d.shape[1]))
            rows[:n] = d
            rows[n] = 0.0
            d_steps = [rows[k : n + 1 : n - k] for k in range(n)]
        else:
            w_steps = w.reshape(no, n, kb).transpose(1, 0, 2)
            d_steps = d.reshape(n, kb, -1)
        acc = np.zeros((no, d.shape[1]))
        step = np.empty_like(acc)
        for k in range(n):
            np.matmul(w_steps[k], d_steps[k], out=step)
            acc += step
        return acc

    def _block_gemm(self, w: np.ndarray, d: np.ndarray, t: int) -> np.ndarray:
        """All per-CPE block products of a stack's schedules, as batched GEMMs.

        ``d`` holds the ``t`` pairs' columns side by side.  Step ``k`` of
        Fig. 3 multiplies, on every CPE (i, j), the same (br x kb) @
        (kb x bc) block pair the broadcasts delivered; one batched
        ``matmul`` per step performs those products for every pair of the
        stack with the same operand shapes and the same k-major
        accumulation order, so the result is bit-identical to the
        simulated schedule.  The W and D block grids are staged as
        contiguous copies first, as the protocol stages them into LDM: a
        one-row block taken as a strided view sends BLAS down a different
        kernel than its contiguous copy does.
        """
        n = self.mesh.size
        no, ni = w.shape
        m = d.shape[1] // t
        br, kb, bc = no // n, ni // n, m // n
        # (k, i, br, kb): W block owned by CPE(i, k), shared by every pair.
        w_blocks = np.ascontiguousarray(w.reshape(n, br, n, kb).transpose(2, 0, 1, 3))
        # (t, k, j, kb, bc): pair t's D block owned by CPE(k, j).
        d_blocks = np.ascontiguousarray(
            d.reshape(n, kb, t, n, bc).transpose(2, 0, 3, 1, 4)
        )
        acc = np.zeros((t, n, n, br, bc))
        step = np.empty_like(acc)
        for k in range(n):
            np.matmul(w_blocks[k, :, None], d_blocks[:, k, None], out=step)
            acc += step
        # (i, br, t, j, bc) -> (No, t * M): the pairs' columns side by side.
        return acc.transpose(1, 3, 0, 2, 4).reshape(no, t * m)

    def _account_fast_path(self, w: np.ndarray, d: np.ndarray, t: int) -> None:
        """Apply the statistics the full schedules of ``t`` pairs would record.

        Per multiply the Fig. 3 schedule performs, on each of the ``n``
        steps, one W-block broadcast per row bus and one D-block broadcast
        per column bus; every CPE sends its W block once (at step = its
        column) and its D block once (at step = its row), receives
        ``2 * (n - 1)`` foreign blocks, and accumulates ``n`` block
        products.  ``t`` multiplies charge ``t`` times that in one update
        per bus and per CPE.
        """
        if t == 0:
            return
        n = self.mesh.size
        no, ni = w.shape
        m = d.shape[2]
        br, kb, bc = no // n, ni // n, m // n
        w_block_bytes = br * kb * w.itemsize
        d_block_bytes = kb * bc * d.itemsize
        for bus in self.mesh.row_buses:
            bus.account_bulk(w_block_bytes, receivers=n - 1, operations=n * t)
        for bus in self.mesh.col_buses:
            bus.account_bulk(d_block_bytes, receivers=n - 1, operations=n * t)
        # Every CPE does the same work, so the telemetry flop counter gets
        # one update for all of them: the same integer total as the
        # protocol's per-block ``count_fma`` calls.
        flops = 2 * br * bc * kb * n * t
        for cpe in self.mesh:
            stats = cpe.stats
            stats.bus_puts += 2 * t
            stats.bus_gets += 2 * (n - 1) * t
            stats.flops += flops
        self.mesh.telemetry.counters.add("cpe.flops", flops * n * n)

    # -- statistics ---------------------------------------------------------

    def reset_stats(self) -> None:
        """Zero the bus and per-CPE counters (verified signatures are kept).

        Call between unrelated plan executions so ``bus_puts``/``bus_gets``
        and the traffic totals describe one execution, not the lifetime of
        the mesh.
        """
        self.mesh.reset_stats()
        for cpe in self.mesh:
            cpe.stats.reset()

    def bus_bytes(self) -> int:
        """Total register-communication traffic so far (both bus kinds)."""
        return self.mesh.total_bus_bytes()
