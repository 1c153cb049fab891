"""``python -m repro`` — command-line interface to the library.

Subcommands::

    info                         architectural summary of the simulated chip
    plan  --ni --no --out --k --batch
                                 plan a convolution and print the decision
    kernel --ni [--original]     dump the (reordered) GEMM inner kernel as
                                 assembly with its simulated timeline
    experiments [names...]       regenerate the paper's tables and figures
    tune  --ni --no --out --k --batch [--algorithms all]
                                 autotune a convolution (optionally across the
                                 conv algorithm zoo), report heuristic vs
                                 tuned, and persist the winner to the plan cache
    profile --ni --no --out --k --batch | --row N
                                 run one layer with telemetry attached: drift
                                 report, communication-lower-bound oracle,
                                 hardware counters, (with --trace-out) a
                                 Chrome trace_event JSON, and (with
                                 --json-out) the validated profile document
    train --nodes N              executed data-parallel SGD across N simulated
                                 nodes: real replicas, exact gradient allreduce,
                                 bucketed comm/compute overlap, scaling curves
    metrics                      run a seeded serve workload with the metrics
                                 registry enabled and render the terminal
                                 dashboard: latency histograms, gauges, the
                                 queue-depth time series, and the OpenMetrics
                                 exposition
    validate FILE...             check JSON documents (profile, trace, metrics,
                                 flight, oracle, chaos-serve, chaos-fleet,
                                 data-parallel, fleet, autotune, fast-path,
                                 serve, algos, telemetry) against
                                 repro.common.schema; exit 1 if any file is
                                 unreadable or invalid
"""

from __future__ import annotations

import argparse
import sys

from repro.common.units import GB


def cmd_info(args) -> int:
    from repro.hw.spec import DEFAULT_SPEC as spec

    print("SW26010 (simulated)")
    print(f"  core groups:        {spec.num_core_groups}")
    print(f"  CPE mesh:           {spec.mesh_size}x{spec.mesh_size} per CG")
    print(f"  clock:              {spec.clock_hz / 1e9:.2f} GHz")
    print(f"  peak (per CG):      {spec.peak_flops_per_cg / 1e9:.1f} Gflops DP")
    print(f"  peak (chip):        {spec.peak_flops_chip / 1e12:.2f} Tflops DP")
    print(f"  LDM per CPE:        {spec.ldm_bytes // 1024} KiB")
    print(f"  LDM->REG bandwidth: {spec.ldm_bandwidth / GB:.1f} GB/s")
    print(f"  DDR3 per CG:        {spec.ddr_peak_bandwidth / GB:.1f} GB/s "
          f"({spec.chip_bandwidth / GB:.0f} GB/s chip)")
    print(f"  gload interface:    {spec.gload_bandwidth / GB:.1f} GB/s")
    print(f"  vector registers:   {spec.vector_registers} x 256-bit per CPE")
    return 0


def cmd_plan(args) -> int:
    from repro.core.conv import ConvolutionEngine, evaluate_chip
    from repro.core.params import ConvParams
    from repro.core.planner import plan_convolution

    params = ConvParams.from_output(
        ni=args.ni, no=args.no, ro=args.out, co=args.out,
        kr=args.k, kc=args.k, b=args.batch,
    )
    print(params.describe())
    print(f"work: {params.flops() / 1e9:.2f} Gflops, "
          f"{params.total_bytes() / 1e6:.1f} MB unique data")
    choice = plan_convolution(params)
    print()
    print(choice.describe())
    est = choice.estimate
    print(f"model: RBW={est.rbw_mem / GB:.1f} GB/s MBW={est.mbw_mem / GB:.1f} GB/s "
          f"EE={est.execution_efficiency:.3f}")
    report = ConvolutionEngine(choice.plan).evaluate()
    print(f"timed (1 CG): {report.gflops:.0f} Gflops "
          f"({report.efficiency * 100:.0f}% of peak)")
    chip_gflops, _ = evaluate_chip(params)
    print(f"timed (4 CG): {chip_gflops / 1e3:.2f} Tflops")
    return 0


def cmd_kernel(args) -> int:
    from repro.isa.assembler import disassemble
    from repro.isa.kernels import (
        GemmKernelSpec,
        gemm_kernel_original,
        gemm_kernel_reordered,
    )
    from repro.isa.pipeline import DualPipelineSimulator

    spec = GemmKernelSpec.for_input_channels(args.ni)
    builder = gemm_kernel_original if args.original else gemm_kernel_reordered
    program = builder(spec)
    print(disassemble(program))
    report = DualPipelineSimulator().simulate(program)
    print()
    print(f"; {report.total_cycles} cycles, EE={report.fma_efficiency:.4f}, "
          f"dual-issue on {report.dual_issue_cycles} cycles")
    if args.timeline:
        print(report.timeline())
    return 0


def cmd_tune(args) -> int:
    from repro.core.conv import ConvolutionEngine
    from repro.core.params import ConvParams
    from repro.core.planner import plan_convolution
    from repro.tune import PlanCache, autotune, search_space

    params = ConvParams.from_output(
        ni=args.ni, no=args.no, ro=args.out, co=args.out,
        kr=args.k, kc=args.k, b=args.batch,
    )
    print(params.describe())
    cache = False if args.no_cache else (
        PlanCache(args.cache) if args.cache else None
    )
    algorithms = None
    if args.algorithms:
        algorithms = (
            "all" if args.algorithms == "all"
            else tuple(args.algorithms.split(","))
        )
    heuristic = plan_convolution(params)
    baseline = ConvolutionEngine(heuristic.plan).evaluate()
    result = autotune(
        params, cache=cache, top_k=args.top_k,
        force=args.force, algorithms=algorithms,
    )
    space = len(search_space(params, algorithms=algorithms))
    print(f"search space: {space} legal candidates, "
          f"{result.measured} measured ({result.source})")
    print(f"heuristic: {heuristic.plan.describe()}")
    print(f"           {baseline.gflops:.1f} Gflops")
    print(f"tuned:     {result.candidate.describe()}")
    print(f"           {result.gflops:.1f} Gflops "
          f"({result.gflops / baseline.gflops:.3f}x heuristic)")
    if result.candidate.algorithm != "direct":
        print(f"algorithm: {result.candidate.algorithm} "
              f"(zoo family beat the direct mapping)")
    if result.cache_path:
        print(f"plan cache: {result.cache_path}")
    return 0


def cmd_experiments(args) -> int:
    from repro.experiments.runner import run_all

    print(run_all(args.names or None))
    return 0


def cmd_zoo(args) -> int:
    from repro.common.tables import TextTable
    from repro.core.zoo import NETWORKS, time_network

    if args.network not in NETWORKS:
        print(f"unknown network {args.network!r}; available: {sorted(NETWORKS)}")
        return 1
    timing = time_network(args.network, batch=args.batch)
    table = TextTable(
        ["layer", "kind", "Gflops", "fwd (ms)", "bwd (ms)"], float_fmt="{:.1f}"
    )
    for layer, cost in zip(timing.layers, timing.costs):
        table.add_row(
            [
                layer.name,
                layer.kind,
                layer.flops() / 1e9,
                cost.forward_seconds * 1e3,
                cost.backward_seconds * 1e3,
            ]
        )
    print(f"{timing.network} training step on one SW26010 (batch {timing.batch})")
    print(table.render())
    print(f"step: {timing.step_seconds * 1e3:.1f} ms, "
          f"{timing.images_per_second:.1f} images/s, "
          f"{timing.sustained_gflops / 1e3:.2f} Tflops sustained")
    return 0


def cmd_trace(args) -> int:
    from repro.core.params import ConvParams
    from repro.core.planner import plan_convolution
    from repro.perf.trace import overlap_summary, render_gantt, trace_plan

    params = ConvParams.from_output(
        ni=args.ni, no=args.no, ro=args.out, co=args.out,
        kr=args.k, kc=args.k, b=args.batch,
    )
    choice = plan_convolution(params)
    print(choice.plan.describe())
    traces = trace_plan(choice.plan, max_tiles=args.tiles)
    print(render_gantt(traces))
    print(f"overlap: {overlap_summary(traces) * 100:.0f}% of compute windows "
          f"hide a later tile's DMA")
    return 0


def _profile_params(args):
    """Resolve the profiled layer: an explicit shape or a Table III row."""
    from repro.core.params import ConvParams

    if args.row is not None:
        from repro.experiments.table3 import PAPER_ROWS

        if not 1 <= args.row <= len(PAPER_ROWS):
            raise SystemExit(
                f"--row must be in [1, {len(PAPER_ROWS)}], got {args.row}"
            )
        ni, no = PAPER_ROWS[args.row - 1][3:5]
        return ConvParams.from_output(ni=ni, no=no, ro=64, co=64, kr=3, kc=3, b=128)
    return ConvParams.from_output(
        ni=args.ni, no=args.no, ro=args.out, co=args.out,
        kr=args.k, kc=args.k, b=args.batch,
    )


def _guarded_probe(args, telemetry) -> None:
    """Small functional run on the degraded machine.

    Exercises the fault-injection hooks and the fallback ladder so the
    profile's counter dump includes ``faults.*`` and ``guard.fallbacks``
    alongside the healthy layer's traffic.
    """
    import numpy as np

    from repro.core.guarded import GuardedConvolutionEngine
    from repro.core.params import ConvParams
    from repro.core.planner import plan_convolution
    from repro.faults import FaultPlan, FaultSpec

    fault_spec = FaultSpec(
        seed=args.seed,
        dma_bandwidth_factor=args.dma_derate,
        fenced_cpes=tuple((i, i) for i in range(args.fenced)),
        bus_stall_rate=0.05,
    )
    small = ConvParams.from_output(ni=16, no=16, ro=8, co=8, kr=3, kc=3, b=8)
    plan = plan_convolution(small).plan
    engine = GuardedConvolutionEngine(
        plan,
        backend="mesh-fast",
        fault_plan=FaultPlan(fault_spec),
        telemetry=telemetry,
    )
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal(small.input_shape)
    w = rng.standard_normal(small.filter_shape)
    with telemetry.tracer.span("profile.guarded", cat="cli"):
        engine.run(x, w)
    outcome = engine.last_outcome
    print(f"guarded probe: ran on {outcome.backend_used!r} tier "
          f"({len(outcome.degradations)} demotion(s))")


def cmd_profile(args) -> int:
    from repro.common.schema import PROFILE_SCHEMA, validate
    from repro.core.conv import ConvolutionEngine, evaluate_chip
    from repro.core.planner import plan_convolution
    from repro.telemetry import Telemetry, use_telemetry
    from repro.telemetry.drift import drift_report
    from repro.telemetry.oracle import oracle_report

    params = _profile_params(args)
    telemetry = Telemetry()
    with use_telemetry(telemetry), telemetry.tracer.span(
        "profile", cat="cli", params=repr(params)
    ):
        report = drift_report(
            [params], threshold=args.threshold, telemetry=telemetry
        )
        oracle = oracle_report([params], telemetry=telemetry)
        choice = plan_convolution(params)
        engine = ConvolutionEngine(choice.plan, telemetry=telemetry)
        recorded = engine.record_tile_spans(max_tiles=args.tiles)
        chip_gflops, _ = evaluate_chip(params, telemetry=telemetry)
        if args.guarded:
            _guarded_probe(args, telemetry)
    print(params.describe())
    print()
    print(report.render())
    print()
    print(oracle.render())
    print()
    print(f"chip (4 CG): {chip_gflops / 1e3:.2f} Tflops; "
          f"{recorded} tile interval(s) traced")
    print()
    print(telemetry.counters.render())
    if args.trace_out:
        telemetry.tracer.write(args.trace_out)
        violations = validate(telemetry.tracer.to_chrome_trace())
        if violations:
            print(f"trace: INVALID ({len(violations)} violation(s))")
            for violation in violations[:5]:
                print(f"  {violation}")
            return 1
        print(f"trace: {args.trace_out} ({len(telemetry.tracer)} span(s), "
              f"valid chrome://tracing JSON)")
    if args.json_out:
        import json

        document = {
            "schema": PROFILE_SCHEMA,
            "params": params.describe(),
            "chip_gflops": chip_gflops,
            "counters": telemetry.counters.as_dict(),
            "drift": report.as_dict(),
            "oracle": oracle.as_dict(),
        }
        violations = validate(document)
        if violations:
            print(f"profile document: INVALID ({len(violations)} violation(s))")
            for violation in violations[:5]:
                print(f"  {violation}")
            return 1
        with open(args.json_out, "w") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
        print(f"profile document: {args.json_out} (valid {PROFILE_SCHEMA})")
    return 0


def cmd_serve(args) -> int:
    if args.chips:
        if args.chaos:
            return _cmd_serve_fleet_chaos(args)
        return _cmd_serve_fleet(args)
    if args.chaos:
        return _cmd_serve_chaos(args)
    import numpy as np

    from repro.serve import (
        InferenceServer,
        ServedModel,
        ServerConfig,
        WarmEnginePool,
        run_load,
        run_sequential,
        synthetic_images,
    )
    from repro.telemetry import Telemetry, use_telemetry

    rng = np.random.default_rng(args.seed)
    scale = np.sqrt(2.0 / (args.ni * args.k * args.k))
    w = rng.standard_normal((args.no, args.ni, args.k, args.k)) * scale
    bias = rng.standard_normal(args.no) * 0.1
    model = ServedModel.conv(
        w, (args.image, args.image), bias=bias, activation="relu", name="cli"
    )
    telemetry = Telemetry()
    config = ServerConfig(
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        queue_depth=args.queue_depth,
        workers=args.workers,
        guarded=not args.unguarded,
        autotune=args.autotune or bool(args.plan_cache),
        plan_cache=args.plan_cache if args.plan_cache else False,
        default_deadline_s=(
            args.deadline_ms / 1e3 if args.deadline_ms is not None else None
        ),
    )
    images = synthetic_images(args.requests, model.input_shape, seed=args.seed + 1)
    with use_telemetry(telemetry):
        server = InferenceServer(model, config, telemetry=telemetry)
        with server:
            report, outputs = run_load(
                server, images, rate_rps=args.rate, seed=args.seed + 2
            )
        accounting = server.accounting()
    print(f"serving {model.describe()}")
    print(
        f"  batched: {report.completed}/{report.offered} completed, "
        f"{report.rejected} rejected, {report.deadline_misses} deadline misses, "
        f"{report.errors} errors"
    )
    print(
        f"  {report.rps:.0f} req/s | p50 {report.latency.p50_ms:.2f} ms | "
        f"p99 {report.latency.p99_ms:.2f} ms | "
        f"max batch seen {telemetry.counters.get('serve.batch_size')}"
    )
    failures = []
    if args.compare or args.smoke:
        pool = WarmEnginePool(
            model,
            max_batch=config.max_batch,
            guarded=config.guarded,
            autotune=config.autotune,
            plan_cache=config.plan_cache,
            telemetry=telemetry,
        )
        seq_report, seq_outputs = run_sequential(pool, images)
        ratio = report.rps / seq_report.rps if seq_report.rps else 0.0
        print(f"  sequential baseline: {seq_report.rps:.0f} req/s -> {ratio:.2f}x")
        for i, out in enumerate(outputs):
            if out is not None and not np.array_equal(out, seq_outputs[i]):
                failures.append(f"output {i} differs from per-request run")
                break
    if args.smoke:
        if report.completed != report.offered:
            failures.append(
                f"only {report.completed}/{report.offered} requests completed"
            )
        if not accounting["balanced"]:
            failures.append(f"serve counters do not balance: {accounting}")
        if failures:
            for failure in failures:
                print(f"smoke FAIL: {failure}")
            return 1
        print("smoke OK: all requests completed, counters balance, "
              "outputs match the per-request run")
    return 0


def _cmd_serve_fleet(args) -> int:
    """``repro serve --chips N``: the multi-chip fleet front door."""
    import numpy as np

    from repro.serve import (
        FleetConfig,
        FleetServer,
        ServedModel,
        WarmEnginePool,
        fleet_workload,
        run_fleet_load,
        run_sequential,
        synthetic_images,
    )
    from repro.telemetry import Telemetry, use_telemetry

    # Under --smoke every active chip must see traffic, so the catalog
    # carries at least one shape per chip.
    shapes = max(args.shapes, args.chips if args.smoke else 1)
    rng = np.random.default_rng(args.seed)
    models = {}
    images = {}
    images_per_model = 4
    for i in range(shapes):
        no = args.no + 2 * i
        scale = np.sqrt(2.0 / (args.ni * args.k * args.k))
        w = rng.standard_normal((no, args.ni, args.k, args.k)) * scale
        bias = rng.standard_normal(no) * 0.1
        model = ServedModel.conv(
            w, (args.image, args.image), bias=bias, activation="relu",
            name=f"shape{i}",
        )
        models[model.name] = model
        images[model.name] = synthetic_images(
            images_per_model, model.input_shape, seed=args.seed + 1 + i
        )
    names = sorted(models)
    workload = fleet_workload(
        names,
        args.requests,
        args.rate,
        pattern=args.arrivals,
        seed=args.seed + 2,
        latency_fraction=args.slo,
        skew=args.skew,
        images_per_model=images_per_model,
    )
    config = FleetConfig(
        chips=args.chips,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        queue_depth=args.queue_depth,
        workers_per_server=args.workers or 1,
        guarded=not args.unguarded,
        autotune=args.autotune,
        default_deadline_s=(
            args.deadline_ms / 1e3 if args.deadline_ms is not None else None
        ),
        seed=args.seed,
        autoscale=args.autoscale,
    )
    telemetry = Telemetry()
    with use_telemetry(telemetry):
        fleet = FleetServer(models, config, telemetry=telemetry)
        with fleet:
            fleet.prewarm()
            report, outputs = run_fleet_load(fleet, workload, images)
            accounting = fleet.accounting()
            states = fleet.chip_states()
    stats = report.affinity
    print(
        f"fleet: {args.chips} chips, {len(names)} shapes, "
        f"{args.arrivals} arrivals, {args.slo * 100:.0f}% latency-class"
    )
    print(
        f"  {report.completed}/{report.offered} completed, "
        f"{report.shed} shed, {report.rejected} rejected, "
        f"{report.deadline_misses} deadline misses, {report.errors} errors"
    )
    print(
        f"  {report.rps:.0f} req/s | p50 {report.latency.p50_ms:.2f} ms | "
        f"p99 {report.latency.p99_ms:.2f} ms"
    )
    for slo, summary in sorted(report.latency_by_slo.items()):
        print(f"    {slo:>10}: p50 {summary.p50_ms:.2f} ms | "
              f"p99 {summary.p99_ms:.2f} ms")
    print(
        f"  affinity {stats['hit_rate'] * 100:.1f}% "
        f"({stats['affinity']} hits, {stats['spill']} spills, "
        f"{stats['cold']} cold, {stats['failover']} failovers)"
    )
    per_chip = ", ".join(
        f"chip{i}={chip['requests']}({states[i]})"
        for i, chip in sorted(accounting["chips"].items())
    )
    print(f"  per-chip requests: {per_chip}")
    if not args.smoke:
        return 0
    failures = []
    if report.completed != report.offered:
        failures.append(
            f"only {report.completed}/{report.offered} requests completed"
        )
    if not accounting["balanced"]:
        failures.append(f"fleet counters do not balance: {accounting}")
    for i, chip in sorted(accounting["chips"].items()):
        if chip["state"] == "active" and chip["requests"] == 0:
            failures.append(f"active chip {i} served no requests")
    # Zero-wrong-answer audit: every fleet answer must be bit-identical
    # to the per-request sequential run of the same shape's warm pool.
    refs = {}
    for name in names:
        pool = WarmEnginePool(
            model=models[name],
            max_batch=config.max_batch,
            guarded=config.guarded,
            autotune=config.autotune,
        )
        _, seq_outputs = run_sequential(pool, images[name])
        refs[name] = seq_outputs
    wrong = 0
    for spec, out in zip(workload, outputs):
        if out is None:
            continue
        if not np.array_equal(out, refs[spec.model][spec.image_index]):
            wrong += 1
    if wrong:
        failures.append(f"{wrong} answers differ from the sequential run")
    if failures:
        for failure in failures:
            print(f"fleet smoke FAIL: {failure}")
        return 1
    print(
        "fleet smoke OK: all requests completed, counters balance across "
        f"{args.chips} chips, zero wrong answers"
    )
    return 0


def _write_chaos_outputs(args, report) -> None:
    """``--json-out`` gets a chaos report, ``--flight-out`` its flight ring."""
    import json

    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
        print(f"report written to {args.json_out}")
    if args.flight_out:
        report.flight.dump(args.flight_out)
        print(
            f"flight ring written to {args.flight_out} "
            f"({report.flight.recorded} event(s), "
            f"{report.flight.dropped} dropped)"
        )


def _cmd_serve_fleet_chaos(args) -> int:
    """``repro serve --chips N --chaos``: chip loss mid-run + route-around."""
    from repro.common.schema import validate
    from repro.faults import run_chaos_fleet

    report = run_chaos_fleet(
        chips=args.chips,
        n_requests=args.requests,
        rate_rps=args.rate if args.rate < 10000 else 1000.0,
        seed=args.seed or 0xF1EE7,
        max_batch=min(args.max_batch, 8),
    )
    print(report.render())
    _write_chaos_outputs(args, report)
    if args.smoke:
        failures = validate(report.as_dict())
        if failures:
            for failure in failures:
                print(f"fleet chaos smoke FAIL: {failure}")
            return 1
        print(
            "fleet chaos smoke OK: chip loss routed around, zero wrong "
            "answers, counters balance"
        )
    return 0


def _cmd_serve_chaos(args) -> int:
    """``repro serve --chaos``: seeded fault plan against a live server."""
    from repro.common.schema import validate
    from repro.faults import default_chaos_serve_faults, run_chaos_serve

    report = run_chaos_serve(
        fault_spec=default_chaos_serve_faults(args.seed or 0xC0FFEE),
        n_requests=args.requests,
        rate_rps=args.rate if args.rate < 10000 else 2000.0,
        ni=args.ni,
        no=args.no,
        image=args.image,
        k=args.k,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        workers=args.workers or 1,
        deadline_s=(
            args.deadline_ms / 1e3 if args.deadline_ms is not None else None
        ),
    )
    print(report.render())
    _write_chaos_outputs(args, report)
    if args.smoke:
        failures = validate(report.as_dict())
        if failures:
            for failure in failures:
                print(f"chaos smoke FAIL: {failure}")
            return 1
        print(
            "chaos smoke OK: availability "
            f"{report.availability * 100:.2f}%, zero wrong answers, "
            "counters balance"
        )
    return 0


def cmd_train(args) -> int:
    import json

    from repro.common.schema import validate
    from repro.scale.cluster import ClusterFaultSpec
    from repro.scale.report import build_dataparallel_report

    faults = None
    if args.chaos:
        faults = ClusterFaultSpec(
            seed=args.seed,
            straggler_rate=0.25,
            straggler_slowdown=3.0,
            link_degrade_rate=0.25,
            link_degrade_factor=0.5,
            partition_rate=0.1,
        )
    global_batch = args.global_batch
    if global_batch % args.nodes != 0:
        global_batch = ((global_batch // args.nodes) + 1) * args.nodes
        print(
            f"note: global batch rounded up to {global_batch} "
            f"(must be a multiple of --nodes {args.nodes})"
        )
    report = build_dataparallel_report(
        nodes=args.nodes,
        topology=args.topology,
        bucket_bytes=args.bucket_kb * 1024,
        global_batch=global_batch,
        steps=args.steps,
        seed=args.seed,
        grain=args.grain,
        overlap=not args.no_overlap,
        faults=faults,
        jobs=args.jobs,
    )
    print(
        f"data-parallel SGD: {args.nodes} node(s), topology={args.topology}, "
        f"global batch {global_batch}, {report['jobs']} worker(s)"
    )
    losses = " -> ".join(f"{loss:.4f}" for loss in report["losses"])
    print(f"  loss: {losses}")
    print(
        f"  simulated: {report['throughput_samples_per_second']:.0f} samples/s, "
        f"comm/compute {report['comm_compute_ratio']:.2f}"
    )
    counters = report["comm_counters"]
    print(
        f"  traffic: {counters.get('comm.link_bytes', 0) / 1e6:.2f} MB on links, "
        f"{int(counters.get('comm.allreduces', 0))} allreduce(s), "
        f"{counters.get('comm.exposed_seconds', 0.0) * 1e3:.3f} ms exposed"
    )
    if report["fault_events"]:
        print(f"  chaos: {len(report['fault_events'])} fault event(s)")
        for event in report["fault_events"][:5]:
            print(f"    {event}")
    parity = report["parity"]
    print(
        f"  parity @ N={parity['node_counts']}: "
        f"{'bitwise identical' if parity['bitwise_identical'] else 'BROKEN'}"
    )
    for row in report["overlap_ablation"]:
        print(
            f"  overlap @ {row['nodes']:>2} nodes: {row['speedup']:.2f}x vs "
            f"serialized ({row['exposed_comm_seconds'] * 1e3:.2f} ms exposed)"
        )
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report written to {args.json_out}")
    if args.smoke:
        failures = validate(report)
        if failures:
            for failure in failures:
                print(f"train smoke FAIL: {failure}")
            return 1
        print(
            "train smoke OK: parity bitwise-identical at N=1/2/4, "
            "replicas in lockstep, report schema valid"
        )
    return 0


def cmd_metrics(args) -> int:
    """``repro metrics``: seeded serve workload -> terminal dashboard.

    Runs the same seeded conv-serving workload as ``repro serve`` with the
    metrics registry and flight recorder enabled, then renders the
    dashboard (latency histograms, gauges, the queue-depth time series),
    the OpenMetrics exposition, and — under ``--smoke`` — proves the
    exposition parses and agrees with the validated JSON snapshot.
    """
    import json

    import numpy as np

    from repro.serve import (
        InferenceServer,
        ServedModel,
        ServerConfig,
        run_load,
        synthetic_images,
    )
    from repro.common.schema import validate
    from repro.telemetry import Telemetry, use_telemetry
    from repro.telemetry.metrics import (
        exposition_matches_snapshot,
        metrics_snapshot,
        parse_openmetrics,
        to_openmetrics,
    )

    rng = np.random.default_rng(args.seed)
    scale = np.sqrt(2.0 / (args.ni * args.k * args.k))
    w = rng.standard_normal((args.no, args.ni, args.k, args.k)) * scale
    bias = rng.standard_normal(args.no) * 0.1
    model = ServedModel.conv(
        w, (args.image, args.image), bias=bias, activation="relu", name="cli"
    )
    telemetry = Telemetry()
    config = ServerConfig(
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        queue_depth=args.queue_depth,
        workers=args.workers,
        autotune=False,
    )
    images = synthetic_images(args.requests, model.input_shape, seed=args.seed + 1)
    with use_telemetry(telemetry):
        server = InferenceServer(model, config, telemetry=telemetry)
        with server:
            report, _ = run_load(
                server, images, rate_rps=args.rate, seed=args.seed + 2
            )
    print(f"metrics dashboard — {model.describe()}")
    print(f"  {report.completed}/{report.offered} completed at "
          f"{report.rps:.0f} req/s "
          f"({telemetry.flight.recorded} flight event(s) recorded)")
    print()
    print(telemetry.metrics.render_dashboard())
    exposition = to_openmetrics(telemetry.metrics, telemetry.counters)
    snapshot = metrics_snapshot(telemetry.metrics, telemetry.counters)
    if args.openmetrics_out:
        with open(args.openmetrics_out, "w") as fh:
            fh.write(exposition)
        print(f"exposition written to {args.openmetrics_out}")
    else:
        print()
        print("OpenMetrics exposition:")
        print(exposition)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
        print(f"snapshot written to {args.json_out}")
    if args.smoke:
        failures = []
        latency = telemetry.metrics.histogram("serve.latency_ms")
        if latency is None or latency.count == 0:
            failures.append("no serve.latency_ms observations recorded")
        elif not 0 < latency.p50 <= latency.p90 <= latency.p99 <= latency.max:
            failures.append(
                f"latency quantiles not ordered: p50={latency.p50} "
                f"p90={latency.p90} p99={latency.p99} max={latency.max}"
            )
        series = telemetry.metrics.series("serve.queue_depth")
        if series is None or series.recorded == 0:
            failures.append("no serve.queue_depth time-series samples")
        try:
            families = parse_openmetrics(exposition)
        except ValueError as exc:
            families = {}
            failures.append(f"exposition does not parse: {exc}")
        if families and "repro_serve_latency_ms" not in families:
            failures.append("exposition lacks the repro_serve_latency_ms family")
        failures.extend(validate(snapshot))
        failures.extend(exposition_matches_snapshot(exposition, snapshot))
        if report.completed != report.offered:
            failures.append(
                f"only {report.completed}/{report.offered} requests completed"
            )
        if failures:
            for failure in failures:
                print(f"metrics smoke FAIL: {failure}")
            return 1
        print(
            f"metrics smoke OK: {latency.count} latency observations "
            f"(p50 {latency.p50:.2f} ms <= p99 {latency.p99:.2f} ms), "
            f"{series.recorded} queue-depth samples, exposition parses "
            f"and matches the validated snapshot"
        )
    return 0


def cmd_validate(args) -> int:
    """``repro validate FILE...``: the one gate for every JSON document."""
    import json

    from repro.common.schema import validate

    status = 0
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"{path}: cannot read: {type(exc).__name__}: {exc}")
            status = 1
            continue
        violations = validate(document)
        if violations:
            print(f"{path}: INVALID ({len(violations)} violation(s))")
            for violation in violations:
                print(f"  {violation}")
            status = 1
        else:
            kind = document.get("schema", "Chrome trace_event JSON")
            print(f"{path}: valid {kind}")
    return status


def cmd_calibrate(args) -> int:
    from repro.perf.calibration import calibrate

    result = calibrate()
    print("calibration against Table III:")
    print(f"  DMA stride efficiency: {result.stride_efficiency:.2f} "
          f"(mean MBW error {result.mbw_error * 100:.1f}%)")
    print(f"  overlap contention:    {result.contention:.2f} "
          f"(mean meas error {result.meas_error * 100:.1f}%)")
    return 0


def _count(minimum: int):
    """An argparse type: an integer of at least ``minimum``."""

    def count(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return int(text)

    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="swDNN reproduction on a simulated SW26010"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="architectural summary").set_defaults(func=cmd_info)

    plan = sub.add_parser("plan", help="plan and time one convolution")
    plan.add_argument("--ni", type=int, default=256, help="input channels")
    plan.add_argument("--no", type=int, default=256, help="output channels")
    plan.add_argument("--out", type=int, default=64, help="output image size")
    plan.add_argument("--k", type=int, default=3, help="filter size")
    plan.add_argument("--batch", type=int, default=128, help="batch size")
    plan.set_defaults(func=cmd_plan)

    kernel = sub.add_parser("kernel", help="dump a GEMM inner kernel")
    kernel.add_argument("--ni", type=int, default=32, help="input channels (K=Ni/8)")
    kernel.add_argument("--original", action="store_true", help="compiler order")
    kernel.add_argument("--timeline", action="store_true", help="cycle timeline")
    kernel.set_defaults(func=cmd_kernel)

    tune = sub.add_parser("tune", help="autotune one convolution's plan")
    tune.add_argument("--ni", type=int, default=256, help="input channels")
    tune.add_argument("--no", type=int, default=256, help="output channels")
    tune.add_argument("--out", type=int, default=64, help="output image size")
    tune.add_argument("--k", type=int, default=3, help="filter size")
    tune.add_argument("--batch", type=int, default=128, help="batch size")
    tune.add_argument("--top-k", type=int, default=12, help="candidates measured")
    tune.add_argument("--cache", metavar="PATH", help="plan-cache directory")
    tune.add_argument("--no-cache", action="store_true", help="skip the cache")
    tune.add_argument("--force", action="store_true", help="re-tune even on hit")
    tune.add_argument(
        "--algorithms", metavar="LIST", default=None,
        help="'all' or comma-separated conv algorithms to search "
             "(direct,im2col,winograd); default: direct only",
    )
    tune.set_defaults(func=cmd_tune)

    exp = sub.add_parser("experiments", help="regenerate tables and figures")
    exp.add_argument("names", nargs="*", help="subset (table2 fig2 fig6 ...)")
    exp.set_defaults(func=cmd_experiments)

    zoo = sub.add_parser("zoo", help="time a zoo network's training step")
    zoo.add_argument("network", help="vgg16 | cifar_quick")
    zoo.add_argument("--batch", type=int, default=None, help="batch size")
    zoo.set_defaults(func=cmd_zoo)

    trace = sub.add_parser("trace", help="Gantt trace of a plan's timeline")
    trace.add_argument("--ni", type=int, default=128)
    trace.add_argument("--no", type=int, default=128)
    trace.add_argument("--out", type=int, default=32)
    trace.add_argument("--k", type=int, default=3)
    trace.add_argument("--batch", type=int, default=64)
    trace.add_argument("--tiles", type=_count(0), default=16)
    trace.set_defaults(func=cmd_trace)

    cal = sub.add_parser("calibrate", help="re-derive the fitted constants")
    cal.set_defaults(func=cmd_calibrate)

    serve = sub.add_parser(
        "serve", help="dynamic-batching inference server + load generator"
    )
    serve.add_argument("--ni", type=int, default=16, help="input channels")
    serve.add_argument("--no", type=int, default=16, help="output channels")
    serve.add_argument("--image", type=int, default=16, help="input image size")
    serve.add_argument("--k", type=int, default=3, help="filter size")
    serve.add_argument("--requests", type=_count(1), default=96,
                       help="requests pushed by the load generator")
    serve.add_argument("--rate", type=float, default=50000.0,
                       help="Poisson arrival rate (req/s)")
    serve.add_argument("--max-batch", type=int, default=16,
                       help="largest coalesced batch")
    serve.add_argument("--max-wait-ms", type=float, default=1.0,
                       help="batching window (milliseconds)")
    serve.add_argument("--queue-depth", type=int, default=256,
                       help="admission queue bound (backpressure past it)")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker threads (default: $SWDNN_JOBS or 1)")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request deadline (milliseconds)")
    serve.add_argument("--autotune", action="store_true",
                       help="tune the pool's plans instead of heuristics")
    serve.add_argument("--plan-cache", metavar="PATH",
                       help="plan-cache directory (implies measured tuning)")
    serve.add_argument("--unguarded", action="store_true",
                       help="raw engines instead of the guarded ladder")
    serve.add_argument("--seed", type=int, default=0,
                       help="weights/images/arrivals seed")
    serve.add_argument("--chips", type=_count(1), default=None,
                       help="run the multi-chip fleet front door with N "
                            "simulated chips (sharded warm pools + "
                            "cache-affinity routing)")
    serve.add_argument("--slo", type=float, default=0.25,
                       help="fleet: fraction of requests in the latency "
                            "SLO class (rest are throughput-class)")
    serve.add_argument("--arrivals", default="poisson",
                       choices=["poisson", "bursty", "diurnal"],
                       help="fleet: arrival process for the trace")
    serve.add_argument("--shapes", type=int, default=3,
                       help="fleet: distinct model shapes in the catalog")
    serve.add_argument("--skew", type=float, default=1.0,
                       help="fleet: Zipf skew of the shape mix")
    serve.add_argument("--autoscale", action="store_true",
                       help="fleet: start at min chips; autoscaler "
                            "grows/parks on backlog")
    serve.add_argument("--chaos", action="store_true",
                       help="replay a seeded fault plan against the server "
                            "(availability + zero-wrong-answer audit); with "
                            "--chips, kill a chip mid-run instead")
    serve.add_argument("--json-out", metavar="PATH", default=None,
                       help="write the chaos-serve report as JSON")
    serve.add_argument("--flight-out", metavar="PATH", default=None,
                       help="write the chaos run's flight-recorder ring "
                            "(causal event dump) as JSON")
    serve.add_argument("--compare", action="store_true",
                       help="also run the sequential per-request baseline")
    serve.add_argument("--smoke", action="store_true",
                       help="assert completion, parity and counter balance; "
                            "exit 1 on any failure")
    serve.set_defaults(func=cmd_serve)

    train = sub.add_parser(
        "train", help="executed multi-node data-parallel training"
    )
    train.add_argument("--nodes", type=int, default=4,
                       help="simulated nodes (model replicas)")
    train.add_argument("--topology", default="ring",
                       choices=["ring", "tree", "ps", "best"],
                       help="allreduce topology")
    train.add_argument("--global-batch", type=int, default=32,
                       help="samples per synchronous step, across all nodes")
    train.add_argument("--grain", type=int, default=None,
                       help="micro-batch size (default: the per-node shard)")
    train.add_argument("--bucket-kb", type=int, default=1024,
                       help="gradient bucket size in KiB (swCaffe-style)")
    train.add_argument("--no-overlap", action="store_true",
                       help="serialize allreduce after backward (ablation)")
    train.add_argument("--steps", type=int, default=4,
                       help="synchronous steps to execute")
    train.add_argument("--seed", type=int, default=0x5BD1E995,
                       help="weights/data/chaos seed")
    train.add_argument("--jobs", type=int, default=None,
                       help="replica worker threads (default: $SWDNN_JOBS or 1)")
    train.add_argument("--chaos", action="store_true",
                       help="inject seeded stragglers, link degradation and "
                            "partitions into the fabric")
    train.add_argument("--json-out", metavar="PATH", default=None,
                       help="write the full data-parallel report as JSON")
    train.add_argument("--smoke", action="store_true",
                       help="assert bitwise parity at N=1/2/4 and validate "
                            "the report schema; exit 1 on any failure")
    train.set_defaults(func=cmd_train)

    profile = sub.add_parser(
        "profile", help="telemetry profile: counters, spans, drift report"
    )
    profile.add_argument("--ni", type=int, default=128, help="input channels")
    profile.add_argument("--no", type=int, default=128, help="output channels")
    profile.add_argument("--out", type=int, default=64, help="output image size")
    profile.add_argument("--k", type=int, default=3, help="filter size")
    profile.add_argument("--batch", type=int, default=128, help="batch size")
    profile.add_argument(
        "--row", type=int, default=None,
        help="profile Table III row N (1-based) instead of --ni/--no/...",
    )
    profile.add_argument("--tiles", type=_count(0), default=32,
                         help="tile intervals exported as sim spans")
    profile.add_argument("--trace-out", metavar="PATH",
                         help="write Chrome trace_event JSON here")
    profile.add_argument("--threshold", type=float, default=0.25,
                         help="relative drift beyond which a layer is flagged")
    profile.add_argument("--guarded", action="store_true",
                         help="also run a small guarded probe on a faulty machine")
    profile.add_argument("--fenced", type=int, default=1,
                         help="CPEs fenced in the guarded probe")
    profile.add_argument("--dma-derate", type=float, default=1.0,
                         help="DMA bandwidth factor for the guarded probe")
    profile.add_argument("--seed", type=int, default=42,
                         help="fault/operand seed for the guarded probe")
    profile.add_argument("--json-out", metavar="PATH", default=None,
                         help="write counters + drift + oracle as one "
                              "validated JSON document")
    profile.set_defaults(func=cmd_profile)

    metrics = sub.add_parser(
        "metrics", help="metrics dashboard of a seeded serve workload"
    )
    metrics.add_argument("--ni", type=int, default=16, help="input channels")
    metrics.add_argument("--no", type=int, default=16, help="output channels")
    metrics.add_argument("--image", type=int, default=16, help="input image size")
    metrics.add_argument("--k", type=int, default=3, help="filter size")
    metrics.add_argument("--requests", type=_count(1), default=96,
                         help="requests pushed by the load generator")
    metrics.add_argument("--rate", type=float, default=20000.0,
                         help="Poisson arrival rate (req/s)")
    metrics.add_argument("--max-batch", type=int, default=16,
                         help="largest coalesced batch")
    metrics.add_argument("--max-wait-ms", type=float, default=1.0,
                         help="batching window (milliseconds)")
    metrics.add_argument("--queue-depth", type=int, default=256,
                         help="admission queue bound")
    metrics.add_argument("--workers", type=int, default=None,
                         help="worker threads (default: $SWDNN_JOBS or 1)")
    metrics.add_argument("--seed", type=int, default=0,
                         help="weights/images/arrivals seed")
    metrics.add_argument("--openmetrics-out", metavar="PATH", default=None,
                         help="write the OpenMetrics exposition here "
                              "(default: print it)")
    metrics.add_argument("--json-out", metavar="PATH", default=None,
                         help="write the JSON metrics snapshot here")
    metrics.add_argument("--smoke", action="store_true",
                         help="assert non-trivial histograms, a queue-depth "
                              "series, and exposition/snapshot agreement; "
                              "exit 1 on any failure")
    metrics.set_defaults(func=cmd_metrics)

    validate = sub.add_parser(
        "validate", help="check JSON documents against their schema"
    )
    validate.add_argument("files", nargs="+", metavar="FILE",
                          help="document to check (dispatched on its "
                               "'schema' tag)")
    validate.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A chaos fleet kills one chip mid-run and routes around it.
    if args.command == "serve" and args.chaos and args.chips == 1:
        parser.error(
            f"serve --chaos with --chips kills one chip mid-run and needs "
            f"at least 2 chips, got {args.chips}"
        )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
