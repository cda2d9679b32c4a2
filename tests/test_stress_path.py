"""The stress path, pinned: a stress frame ends at the LinkGuardian
receiver that counts it, and the sender draws its recirculation phases
in blocks — and neither changes a number the §4.1 harness reports.

Every digest below was computed at the commit whose stress world still
routed each delivered frame through the receiver switch's pipeline to a
sink port and wire, and whose sender drew one scalar phase per frame.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.experiments.stress import run_stress_test
from repro.linkguardian.config import LinkGuardianConfig
from repro.obs import Observability

DURATION_MS = 0.5

#: shape -> ``run_stress_test`` keyword arguments (seed and duration added)
SHAPES = {
    "ordered": dict(loss_rate=1e-3),
    "nb": dict(loss_rate=1e-3, ordered=False),
    "bursty": dict(loss_rate=5e-3, mean_burst=2.0),
    "25g-nb": dict(rate_gbps=25, loss_rate=1e-2, ordered=False),
    "400g": dict(rate_gbps=400, loss_rate=1e-3),
    "loss-free": dict(loss_rate=0.0),
}

#: (shape, seed) -> sha256 of the sorted-JSON ``StressResult``
PINNED = {
    ("ordered", 7):
        "d21ef2e6835ea84bbfb38badf1d7d96a8f61acb8359d9f47368281f2710a8097",
    ("ordered", 8):
        "d607c4fb8e102bf74bdeacdb0dd9afcc5d497573fd7b176fb4d616b1e72afbde",
    ("nb", 7):
        "dcf291460b543cd3499689e084d78b21a4f20cdaafeb8cdb6bef73067c5c0dfc",
    ("nb", 8):
        "a9a3c67fc23018a79f869f794a8d2b9d97d7eb88369a2e2ab1c400807520c868",
    ("bursty", 7):
        "831663b234d535fcd539bac8f982e2ee337492f5c10c07a3b0ac189fca42d247",
    ("bursty", 8):
        "a075ac0d5fdb20b361fdc0be327fb6f32ede4718110c0481bd6eaa62657c93b8",
    ("25g-nb", 7):
        "5d54636f5f634b8c813c4a2c0991eb029267c0786e69a6cc113b269f4fdbc36b",
    ("25g-nb", 8):
        "518ad9db415bbe85f2d7287ae0197f20fc0b143a2f0d68a35b53d803df0ef53a",
    ("400g", 7):
        "36281117212abeba9ec34cdc961118e542539bd9d8b9cbd579f4790f3a5a0e90",
    ("400g", 8):
        "fa61d84fe2dd6f2fc1da66de835c167ab31879da56b0b02810fd9ab320fab331",
    ("loss-free", 7):
        "d24bb89239029521ca06af355e01a3d9b3d5ad88c54b40b6666029c460723c95",
    ("loss-free", 8):
        "f3d3dd5dc8b63855004fbcff9e0640ee82ac9fa0d29bed31815a0fb8b04c0e0e",
}


def stress_kwargs(shape: str, seed: int) -> dict:
    return dict(SHAPES[shape], seed=seed, duration_ms=DURATION_MS)


def result_digest(result) -> str:
    text = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("shape, seed", sorted(PINNED))
def test_stress_result_pinned(shape, seed):
    result = run_stress_test(**stress_kwargs(shape, seed))
    assert result_digest(result) == PINNED[shape, seed]


def _digest(tree) -> str:
    text = json.dumps(tree, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


#: sha256 of the instrumented cell's tracer events and of its registry
#: snapshot without the engine's own counters (those count dispatches)
INSTRUMENTED = {
    "trace":
        "d1ebe9d16001207433af109397315f193499f1c72f122b0f43993439ff1b1669",
    "registry":
        "a3bc3aa72a2999a009adfae6205cb64e4222e0961ca4ee365fef0ad79fd176c0",
}


def test_instrumented_cell_pinned():
    obs = Observability(spans=True)
    result = run_stress_test(obs=obs, **stress_kwargs("ordered", 7))
    assert result_digest(result) == PINNED["ordered", 7]
    assert obs.tracer.dropped == 0
    events = [list(event) for event in obs.tracer.events()]
    registry = {name: value for name, value in obs.registry.snapshot().items()
                if name != "engine" and not name.startswith("engine.")}
    assert {"trace": _digest(events),
            "registry": _digest(registry)} == INSTRUMENTED


# -- block draws ---------------------------------------------------------------

_LOOPS = sorted({LinkGuardianConfig.for_link_speed(rate).recirc_loop_ns
                 for rate in (25, 100, 400)})


@pytest.mark.parametrize("n", [*_LOOPS, 3, 2**31 + 5])
@pytest.mark.parametrize("k", [1, 256, 257])
def test_block_draw_equals_scalar_draws(n, k):
    # The numpy property LgSender's phase blocks rely on: below 2**32 a
    # bounded draw reads the bit generator's buffered 32-bit output, so
    # one draw of k values is k scalar draws, in values and in the
    # generator state it leaves behind.
    block, scalar = np.random.default_rng(2023), np.random.default_rng(2023)
    block.random()
    scalar.random()
    values = block.integers(0, n, size=k).tolist()
    assert values == [int(scalar.integers(0, n)) for _ in range(k)]
    assert block.bit_generator.state == scalar.bit_generator.state
