"""Events are ordered by when they were caused: ``(time, caused_at, seq)``.

A frame's wire hop and the pipeline (or host stack) behind it are one
event, keyed at the instant the frame reaches the far end
(``Simulator.schedule_via``), and a re-armed transport timer moves its
deadline in place (``Simulator.timer``) instead of cancelling one entry
and pushing another.  Neither may change which handlers run or in what
order: every digest in ``PINNED`` was recorded at the commit before
either existed, when each hop was two events and each re-arm a cancel
plus a fresh push (``PYTHONPATH=src python tests/test_event_keys.py``
prints them again).

The one order the key does not reproduce — an event already pending
when a frame left, firing at the very nanosecond the frame arrives and
scheduling a child for the very nanosecond its handler runs — is pinned
as documented behaviour in ``test_the_residual_tie_runs_the_hop_first``.
"""

import dataclasses
import functools
import hashlib
import json
import random

import pytest

from repro.core.engine import SimError, Simulator
from repro.experiments.stress import run_stress_test
from repro.runner import ExperimentSpec, run_cell

from queue_contract import QueueLog

#: name -> zero-arg run returning the canonical text
CELLS = {}
for _transport in ("dctcp", "rdma"):
    for _scenario in ("lg", "loss", "lgnb"):
        for _size, _trials in ((143, 30), (24_387, 8)):
            for _loss in (1e-3, 1e-2):
                CELLS[f"fct-{_transport}-{_scenario}-{_size}-{_loss:g}"] = (
                    lambda spec=ExperimentSpec(
                        kind="fct", transport=_transport, scenario=_scenario,
                        flow_size=_size, n_trials=_trials, loss_rate=_loss,
                        seed=1): run_cell(spec).canonical_json())
for _rate in (25, 100, 400):
    for _loss in (1e-3, 1e-2):
        for _burst in (1.0, 4.0):
            CELLS[f"stress-{_rate}g-{_loss:g}-burst{_burst:g}"] = (
                lambda kwargs=dict(
                    rate_gbps=_rate, loss_rate=_loss, mean_burst=_burst,
                    ordered=True, duration_ms=0.3, seed=5): json.dumps(
                        dataclasses.asdict(run_stress_test(**kwargs)),
                        sort_keys=True))

#: name -> sha256 of the cell's canonical text before hops were folded
#: and timers re-armed in place
PINNED = {
    'fct-dctcp-lg-143-0.001':
        'c143f9f4cc48a4d4b234984c267bd5784dabc889f3c91a6f67119a5b6c786d10',
    'fct-dctcp-lg-143-0.01':
        '1cf309b0ea71143dd33ffcf156cc5551a1bd7de0f0b8dafa8f2d7ef48d44d351',
    'fct-dctcp-lg-24387-0.001':
        'ac5d8687d2e715b7c80aaf72b4da3c2763713627c954283ac3f05479976ce591',
    'fct-dctcp-lg-24387-0.01':
        '8154e94254e4410df65793373b5bef5b5f0ec975bdfed031ee11d3f1a6f50c13',
    'fct-dctcp-lgnb-143-0.001':
        'ff02df1be27fd83ddcd813c0d76e1c42e21f84b009bbe3d63f6621d0788cad81',
    'fct-dctcp-lgnb-143-0.01':
        '8bd2259ce646cfa1b9abff0d85d96bcd06114d606ece4ab43dbc79f37183a1ff',
    'fct-dctcp-lgnb-24387-0.001':
        '7d0d6e409a70a674952f2338a2b1482666703d8f47822d8f044c69a638dd1e7e',
    'fct-dctcp-lgnb-24387-0.01':
        '13ef609c383c2eed614fa81b0928b191629538c72fa7906b2878f9f9497fb636',
    'fct-dctcp-loss-143-0.001':
        '66204e676f0a39944b7868630d24c0bef43e5421699d29de9e67970b5084c868',
    'fct-dctcp-loss-143-0.01':
        '5cc88fc90d7628e1ef1f3858bac1badadd8f8f779695efa55992e990d39d2bf4',
    'fct-dctcp-loss-24387-0.001':
        '8db90bcc598703a3ddb4c9962b774c1ae0d0ea36a58c7a5ea1bafc8c2fe645a7',
    'fct-dctcp-loss-24387-0.01':
        '47729cc438f706580194b7a84d0d36521950969ffd47480f5321ddc304ab60e3',
    'fct-rdma-lg-143-0.001':
        'bce98b8e5b24e14679d3b025e5773b5ac12aa7660dd7ff6c4eedf5e6750ef24f',
    'fct-rdma-lg-143-0.01':
        'e8aea2fda98b88c84db035e93d59553eecf725f08b3671585739cfc6ef1dde24',
    'fct-rdma-lg-24387-0.001':
        '65261ca2e87b90fea28a5380f6b84ef42b815b93b31599fb3051e842f0ab48f0',
    'fct-rdma-lg-24387-0.01':
        '048a815fda78be6a0ab0e0adcb3d073d5f6bd81bf1ad4f3c50fd0e8176d4d474',
    'fct-rdma-lgnb-143-0.001':
        '53e27f7a156ede23537e94044d7c0c54659be625286661c0cc6e106e410993af',
    'fct-rdma-lgnb-143-0.01':
        'bdab5fb9e32d7438e602632dd30e753ef86630618154a3254f4570386d0c9154',
    'fct-rdma-lgnb-24387-0.001':
        '235902fa9a70e3dfd84485bca221429c59937ab6194c66d040cf05fb02fec658',
    'fct-rdma-lgnb-24387-0.01':
        'ec9efb8059c28d2d0a1c70c7d575899f5118141e4176fa47538dd7a647d300c0',
    'fct-rdma-loss-143-0.001':
        'badcdc88b70877fc121ff8f263c34aca71500111d8a19f5c7fdd73598569fb50',
    'fct-rdma-loss-143-0.01':
        'ba096683e6ba3aa0177fd0fdbe172c03125b760d38cf8501beab6ccdba2f6c55',
    'fct-rdma-loss-24387-0.001':
        '064cceba58c2aade990b8a51c6928120cbfcd8596e5be914bbfb19be7394f02e',
    'fct-rdma-loss-24387-0.01':
        '35347bb147daa17513ef93e7da5046fa4593181740155880f11fe15e87a1ad30',
    'stress-100g-0.001-burst1':
        '78f3942c3ba1142e7fa09c9fe549f97984849065ad0e4b374b913e500371c63e',
    'stress-100g-0.001-burst4':
        'fde950ff8cf54d31676ecdd9c8d2656eaf01e20a6ab7bf488d3679518c3710f6',
    'stress-100g-0.01-burst1':
        '84518fc6f63dfb2de40e64dd5bd8fc213f80ad7e6211bddefb48db67e09d12e8',
    'stress-100g-0.01-burst4':
        '1162f8455dc71fcea9415f2716cd445fe50efce04ed9f4338248058abdd20d3e',
    'stress-25g-0.001-burst1':
        'ef75ee66fa8d1d894534b41796881240c13db959682da2e31b44f9e799a2f429',
    'stress-25g-0.001-burst4':
        'ef75ee66fa8d1d894534b41796881240c13db959682da2e31b44f9e799a2f429',
    'stress-25g-0.01-burst1':
        'd79737a543918e3dd52bfde8c4503202aeb9fd9c1bb6c89873e16e32f1564137',
    'stress-25g-0.01-burst4':
        'e358c8dbfc5221e6849931ef46bce48579a755441bd9e7610f92079cd4aab4bd',
    'stress-400g-0.001-burst1':
        '58cd4492e3c68b671c40d2a095cf493ae85a463863bf0a6de099da5a26489962',
    'stress-400g-0.001-burst4':
        'f6d07b72e519cca0cde31b93815abd1b356a64a853340189ff2c2f1e2316a838',
    'stress-400g-0.01-burst1':
        '4a9efb87d00fa8162512f3a4cfb90e0ad7a8a7e6bfe6902767da3ccc9e25381c',
    'stress-400g-0.01-burst4':
        'd730c6998cd5d5fed200ba25e5a4a569de9586d103fe2b37b7615a7ed644074a',
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_result_equals_the_two_event_kernel(name):
    assert _digest(CELLS[name]()) == PINNED[name]


# -- one event per hop ------------------------------------------------------------

HOP, DELAY = 500, 400      # a wire, then a pipeline pass: lands at 900


def _two_events(sim, hop, delay, callback, *args):
    """The hop as it was: an arrival event that schedules the handler."""
    sim.schedule(hop, lambda: sim.schedule(delay, callback, *args))


def _one_event(sim, hop, delay, callback, *args):
    sim.schedule_via(hop, delay, callback, *args)


def _tie_script(sim, send):
    """Frames and plain events that meet at the frame's landing, 900 ns,
    in every way but the residual one; returns the dispatch log."""
    log = []

    def mark(tag):
        log.append((sim.now, tag))

    def spawn(delay, tag):
        sim.schedule(delay, mark, tag)

    # the NIC-finish-vs-forward tie: an event scheduled before the
    # frame left, due the instant the frame's handler runs
    sim.schedule(HOP + DELAY, mark, "pending-before")
    # a second frame, sent first but arriving 5 ns later: caused later,
    # so it lands after the first however their seqs compare
    send(sim, HOP + 5, DELAY - 5, mark, "late-arriving-frame")
    send(sim, HOP, DELAY, mark, "frame")
    sim.schedule(HOP + DELAY, mark, "pushed-after")
    # children caused before, at and after the arrival instant by
    # events pushed after the frame
    sim.schedule(HOP - 1, spawn, DELAY + 1, "caused-before-arrival")
    sim.schedule(HOP, spawn, DELAY, "caused-at-arrival")
    sim.schedule(HOP + 1, spawn, DELAY - 1, "caused-after-arrival")
    sim.run()
    return log


def test_a_hop_equals_the_two_event_pair_on_same_nanosecond_ties():
    expected = [(900, tag) for tag in (
        "pending-before", "pushed-after", "caused-before-arrival", "frame",
        "caused-at-arrival", "caused-after-arrival", "late-arriving-frame")]
    assert _tie_script(Simulator(), _two_events) == expected
    assert _tie_script(Simulator(), _one_event) == expected


def test_the_residual_tie_runs_the_hop_first():
    # An event already pending when the frame left fires at the arrival
    # instant and schedules a child for the instant the frame's handler
    # runs.  Two events ran the child first (its seq was drawn before the
    # arrival event fired); the hop's key was drawn at transmit, so the
    # hop now runs first.  Documented, not an accident: a change to the
    # key shows up here.
    def run(send):
        sim = Simulator()
        log = []
        sim.schedule(HOP, lambda: sim.schedule(DELAY, log.append, "child"))
        send(sim, HOP, DELAY, log.append, "frame")
        sim.run()
        return log

    assert run(_two_events) == ["child", "frame"]
    assert run(_one_event) == ["frame", "child"]


def test_schedule_via_rejects_the_past():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.schedule_via(-1, 0, print)
    with pytest.raises(SimError):
        sim.schedule_via(0, -1, print)


# -- timers re-arm in place -----------------------------------------------------------

class _CancelAndPush:
    """A re-arm as it was: cancel the pending event, push a fresh one."""

    def __init__(self, sim, callback):
        self.sim, self.callback, self.event = sim, callback, None

    def arm(self, delay):
        if self.event is not None:
            self.event.cancel()
        self.event = self.sim.schedule(delay, self._fire)

    def cancel(self):
        if self.event is not None:
            self.event.cancel()
            self.event = None

    def _fire(self):
        self.event = None
        self.callback()


def _fired(sim, log, tag="timer"):
    return lambda: log.append((sim.now, tag))


def test_a_later_rearm_pushes_nothing():
    sim = Simulator()
    log = []
    timer = sim.timer(_fired(sim, log))
    timer.arm(100)
    held = len(sim.queue)
    for delay in (150, 200, 200):
        timer.arm(delay)
        assert len(sim.queue) == held
    sim.run()
    assert log == [(200, "timer")]
    assert sim.events_cancelled == 0


def test_an_earlier_rearm_pushes():
    sim = Simulator()
    log = []
    timer = sim.timer(_fired(sim, log))
    timer.arm(200)
    held = len(sim.queue)
    timer.arm(100)
    assert len(sim.queue) == held + 1
    sim.run()
    assert log == [(100, "timer")]
    assert sim.events_cancelled == 1


@pytest.mark.parametrize("rearm_at", [0, 50])
def test_a_same_deadline_rearm_fires_after_an_event_keyed_between(rearm_at):
    # the recorded key decides, not the deadline: a re-arm to the same
    # deadline moves the timer behind what was scheduled in between
    def run(rearm):
        sim = Simulator()
        log = []
        timer = sim.timer(_fired(sim, log))
        timer.arm(100)

        def between():
            sim.schedule(100 - sim.now, log.append, (100, "between"))
            if rearm:
                timer.arm(100 - sim.now)

        sim.schedule(rearm_at, between)
        sim.run()
        return log

    assert run(rearm=False) == [(100, "timer"), (100, "between")]
    assert run(rearm=True) == [(100, "between"), (100, "timer")]


def test_a_cancel_after_a_lazy_rearm_fires_nothing():
    sim = Simulator()
    log = []
    timer = sim.timer(_fired(sim, log))
    timer.arm(100)
    timer.arm(300)
    sim.schedule(200, timer.cancel)      # after the stale wake re-entered
    other = sim.timer(_fired(sim, log, "other"))
    other.arm(100)
    other.arm(300)
    other.cancel()                       # before it
    sim.run()
    assert log == []
    assert len(sim.queue) == 0


def test_a_timer_rearmed_from_its_own_callback_fires_again():
    sim = Simulator()
    log = []

    def tick():
        log.append(sim.now)
        if len(log) < 3:
            timer.arm(10)

    timer = sim.timer(tick)
    timer.arm(10)
    sim.run()
    assert log == [10, 20, 30]


def test_a_cleared_simulator_does_not_strand_a_timer():
    sim = Simulator()
    log = []
    timer = sim.timer(_fired(sim, log))
    timer.arm(100)
    sim.clear()
    timer.arm(200)              # the old entry is gone: this one pushes
    sim.run()
    assert log == [(200, "timer")]


DELAYS = (0, 5, 10, 10, 20, 40)


def _random_run(make_timer, seed, hops=False):
    """Timers and plain events (and, with ``hops``, one-event hops)
    re-arming, cancelling and scheduling each other at random, ties
    everywhere; returns the dispatch log."""
    sim = Simulator()
    rng = random.Random(seed)
    log = []

    def handler(tag):
        log.append((sim.now, tag))
        act()

    def act():
        if len(log) > 2_000:
            return
        for _ in range(rng.randrange(1, 4)):
            roll = rng.random()
            timer = timers[rng.randrange(len(timers))]
            if roll < 0.5:
                timer.arm(rng.choice(DELAYS))
            elif roll < 0.6:
                timer.cancel()
            elif hops and roll < 0.8:
                sim.schedule_via(rng.choice(DELAYS), rng.choice(DELAYS),
                                 handler, f"hop{len(log)}")
            else:
                sim.schedule(rng.choice(DELAYS), handler, f"event{len(log)}")

    timers = [make_timer(sim, functools.partial(handler, f"timer{index}"))
              for index in range(3)]
    for _ in range(4):
        act()
    sim.run(until=5_000)
    return log


@pytest.mark.parametrize("seed", range(8))
def test_timers_dispatch_as_cancel_and_push_did(seed):
    pushed = _random_run(_CancelAndPush, seed)
    assert len(pushed) > 50
    assert _random_run(Simulator.timer, seed) == pushed


@pytest.mark.parametrize("seed", range(8))
def test_hops_and_timers_dispatch_in_contract_order(monkeypatch, seed):
    # every entry a hop, a timer (fresh or re-entering) or a plain event
    # pushes comes out in (time, caused_at, seq) order, live, and all
    # that is due by the run's end
    log = QueueLog(monkeypatch)
    dispatched = _random_run(Simulator.timer, seed, hops=True)
    assert len(dispatched) > 50
    assert any(tag.startswith("hop") for _, tag in dispatched)
    log.check(5_000)


if __name__ == "__main__":  # pragma: no cover - the recorder
    for cell_name in sorted(CELLS):
        print(f"    {cell_name!r}:\n        "
              f"{_digest(CELLS[cell_name]())!r},")
