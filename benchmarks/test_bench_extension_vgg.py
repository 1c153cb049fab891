"""Extension bench: a full VGG-16 training step on one simulated chip.

The end-to-end number the paper's per-kernel evaluation points toward:
what one SW26010 delivers training an ImageNet-class network, layer by
layer, through the same plans the Fig. 7 sweep uses.
"""

from repro.common.tables import TextTable
from repro.core.zoo import time_network


def test_bench_extension_vgg16_training_step(benchmark):
    timing = benchmark.pedantic(
        lambda: time_network("vgg16", batch=32), rounds=1, iterations=1
    )
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
    print()
    print("Extension — VGG-16 training step on one SW26010 (batch 32)")
    print(table.render())
    print(
        f"step: {timing.step_seconds * 1e3:.0f} ms, "
        f"{timing.images_per_second:.1f} images/s, "
        f"{timing.sustained_gflops / 1e3:.2f} Tflops sustained"
    )
    assert len(timing.layers) == 16
    # The sustained rate should sit in the same band as the Fig. 7 layers.
    assert 0.8e3 < timing.sustained_gflops < 2.97e3
    # Convolutions dominate an ImageNet-class network (Section III-A).
    conv_time = sum(
        cost.total_seconds
        for layer, cost in zip(timing.layers, timing.costs)
        if layer.kind == "conv"
    )
    assert conv_time / timing.step_seconds > 0.9
    benchmark.extra_info["images_per_second"] = round(timing.images_per_second, 1)
