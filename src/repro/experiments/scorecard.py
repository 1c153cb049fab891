"""The reproduction scorecard: every pinned claim, checked in one run.

DESIGN.md's validation ladder ends in a list of paper-number pins; this
experiment executes all of them and prints PASS/FAIL per claim, so "the
reproduction holds" is a command (``python -m repro.experiments
scorecard``) rather than a sentence.  Exact pins (architecture constants,
RBW equations, cycle counts) require equality to the printed precision;
shape pins (Fig. 7/9 aggregates, Table III measurements) carry their
documented tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.units import GB


@dataclass
class Check:
    """One verified claim."""

    claim: str
    paper: str
    ours: str
    passed: bool


def _fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"


def run(fast: bool = True) -> List[Check]:
    """Execute every pin; ``fast=True`` samples the Fig. 7 sweep (1 in 4)."""
    checks: List[Check] = []

    def add(claim: str, paper: str, ours: float, digits: int, ok: bool) -> None:
        checks.append(Check(claim, paper, _fmt(ours, digits), ok))

    # -- architecture constants -------------------------------------------
    from repro.hw.spec import DEFAULT_SPEC

    peak = DEFAULT_SPEC.peak_flops_per_cg / 1e9
    add("per-CG peak (Gflops)", "742.4", peak, 1, abs(peak - 742.4) < 0.1)
    ldm_bw = DEFAULT_SPEC.ldm_bandwidth / GB
    add("LDM->REG bandwidth (GB/s)", "46.4", ldm_bw, 1, abs(ldm_bw - 46.4) < 0.1)

    # -- Fig. 2 ------------------------------------------------------------
    from repro.perf.equations import RBW_DIRECT_MEM, rbw_ldm_reg_gemm_simd
    from repro.perf.model import PerformanceModel

    direct = PerformanceModel().direct_memory()
    add(
        "gload efficiency (%)",
        "0.32",
        direct.efficiency * 100,
        2,
        abs(direct.efficiency * 100 - 0.33) < 0.05,
    )
    rbw_direct = RBW_DIRECT_MEM / GB
    add("direct-access RBW (GB/s)", "139.20", rbw_direct, 2, abs(rbw_direct - 139.2) < 0.01)
    eq5 = rbw_ldm_reg_gemm_simd(16, 4) / GB
    add("Eq.5 at (16,4) (GB/s)", "23.2", eq5, 1, abs(eq5 - 23.2) < 0.05)

    # -- Table II -----------------------------------------------------------
    from repro.experiments import table2

    rows2 = table2.run()
    exact = all(
        abs(r.get_gbps - r.paper_get) < 0.01 and abs(r.put_gbps - r.paper_put) < 0.01
        for r in rows2
    )
    checks.append(
        Check("Table II DMA bandwidths", "12 rows exact", "12 rows" if exact else "mismatch", exact)
    )

    # -- Fig. 6 / Section VI ----------------------------------------------------
    from repro.isa.kernels import (
        GemmKernelSpec,
        gemm_kernel_original,
        gemm_kernel_reordered,
        paper_execution_efficiency,
    )
    from repro.isa.pipeline import DualPipelineSimulator

    sim = DualPipelineSimulator()
    spec16 = GemmKernelSpec(iterations=16)
    orig = sim.simulate(gemm_kernel_original(spec16))
    add(
        "original kernel (cycles/iter)",
        "26",
        orig.total_cycles / 16,
        1,
        orig.total_cycles == 26 * 16,
    )
    add(
        "original EE (%)",
        "61.5",
        orig.fma_efficiency * 100,
        1,
        abs(orig.fma_efficiency - 16 / 26) < 1e-9,
    )
    reord = sim.simulate(gemm_kernel_reordered(spec16))
    add(
        "reordered kernel (cycles, K=16)",
        "5+15*17+16 = 276",
        float(reord.total_cycles),
        0,
        reord.total_cycles == 276,
    )
    ee_ok = all(
        abs(
            sim.simulate(
                gemm_kernel_reordered(GemmKernelSpec.for_input_channels(ni))
            ).fma_efficiency
            - paper_execution_efficiency(ni)
        )
        < 1e-9
        for ni in (32, 64, 128, 256, 384)
    )
    checks.append(Check("EE formula vs simulation", "exact, all Ni", "exact" if ee_ok else "mismatch", ee_ok))

    # -- Table III ---------------------------------------------------------------
    from repro.experiments import table3

    rows3 = table3.run()
    rbw_ok = all(abs(r.rbw_gbps - r.paper_rbw) < 0.1 for r in rows3)
    checks.append(
        Check("Table III RBW column", "4 rows exact", "exact" if rbw_ok else "mismatch", rbw_ok)
    )
    meas_dev = max(
        abs(r.measured_gflops - r.paper_measured) / r.paper_measured for r in rows3
    )
    add("Table III measured (max dev %)", "<= 15", meas_dev * 100, 1, meas_dev <= 0.15)

    # -- Fig. 7 -------------------------------------------------------------------
    from repro.experiments import fig7
    from repro.experiments.configs import fig7_configs

    configs = fig7_configs()[:: 4 if fast else 1]
    summary = fig7.run(configs=configs)
    add(
        "Fig.7 min speedup (x)",
        "1.91 (band 1.5-15 accepted)",
        summary.min_speedup,
        2,
        1.5 < summary.min_speedup,
    )
    add(
        "Fig.7 max speedup (x)",
        "9.75 (band 1.5-15 accepted)",
        summary.max_speedup,
        2,
        summary.max_speedup < 15.0,
    )
    add(
        "Fig.7 configs above 1.6 Tflops (%)",
        "'most'",
        summary.fraction_above_1p6 * 100,
        0,
        summary.fraction_above_1p6 > 0.5,
    )
    stable = summary.variation("swdnn") < summary.variation("k40m")
    checks.append(
        Check(
            "Fig.7 stability",
            "swDNN flat, cuDNN jagged",
            f"CV {summary.variation('swdnn'):.2f} vs {summary.variation('k40m'):.2f}",
            stable,
        )
    )

    # -- scaling ----------------------------------------------------------------
    from repro.experiments import scaling

    rows_s = scaling.run()
    eff = min(r.parallel_efficiency for r in rows_s)
    add("4-CG scaling efficiency", "near linear", eff, 2, eff > 0.9)

    # -- calibration audit ----------------------------------------------------------
    from repro.perf.calibration import calibrate

    cal = calibrate()
    cal_ok = cal.stride_efficiency == 0.7 and cal.contention == 0.5
    checks.append(
        Check(
            "calibration reproducible",
            "stride 0.70, contention 0.50",
            f"stride {cal.stride_efficiency:.2f}, contention {cal.contention:.2f}",
            cal_ok,
        )
    )

    # -- plan cache ---------------------------------------------------------------
    # Cold tune -> miss + store; identical second call -> hit, nothing
    # re-measured.  Runs against a throwaway directory so the scorecard
    # never touches (or depends on) the user's real cache.
    import tempfile

    from repro.core.params import ConvParams as _ConvParams
    from repro.tune import PlanCache, autotune

    with tempfile.TemporaryDirectory() as tmp:
        cache = PlanCache(tmp)
        tiny = _ConvParams(ni=16, no=16, ri=6, ci=6, kr=3, kc=3, b=8)
        cold = autotune(tiny, cache=cache, top_k=2)
        warm = autotune(tiny, cache=cache, top_k=2)
        cache_ok = (
            cold.source == "tuned"
            and warm.source == "cache"
            and warm.measured == 0
            and cache.stats.hits == 1
            and cache.stats.misses == 1
            and cache.stats.stores == 1
        )
        checks.append(
            Check(
                "plan cache cold->warm",
                "1 miss, 1 store, 1 hit, 0 re-measured",
                f"{cache.stats.misses} miss, {cache.stats.stores} store, "
                f"{cache.stats.hits} hit, {warm.measured} re-measured",
                cache_ok,
            )
        )
    return checks


def render(checks: Optional[List[Check]] = None) -> str:
    checks = checks if checks is not None else run()
    from repro.common.tables import TextTable

    table = TextTable(["claim", "paper", "ours", "status"])
    for check in checks:
        table.add_row(
            [check.claim, check.paper, check.ours, "PASS" if check.passed else "FAIL"]
        )
    passed = sum(1 for c in checks if c.passed)
    header = (
        "Reproduction scorecard — every pinned claim, executed\n"
    )
    footer = f"\n{passed}/{len(checks)} claims hold"
    return header + table.render() + footer
