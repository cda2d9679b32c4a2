#!/usr/bin/env python3
"""Automatic corruption detection and LinkGuardian activation.

An operator never flips LinkGuardian on by hand: the corruptd daemon
(paper Appendix C) polls port counters every second, estimates the loss
rate over a moving window of frames, and — when the link crosses the
healthy-BER threshold — notifies the upstream switch, which activates
LinkGuardian sized by Equation 2.

This example dials corruption onto a healthy link mid-run (the VOA in
the paper's testbed) and watches the control loop close.

Run:  python examples/corruptd_monitoring.py
"""

import numpy as np

from repro.experiments.testbed import build_testbed
from repro.monitor.corruptd import Corruptd
from repro.packets.packet import Packet
from repro.phy.loss import BernoulliLoss
from repro.units import MS, MTU_FRAME


def main() -> None:
    testbed = build_testbed(rate_gbps=100, lg_active=False)
    sim = testbed.sim

    daemon = Corruptd(
        sim, testbed.plink,
        poll_interval_ns=2 * MS,          # accelerated from 1 s
        window_frames=20_000,
    )
    daemon.start()

    # A sink and a steady packet stream across the link.
    from repro.switchsim.link import Link

    delivered = []
    testbed.receiver_switch.add_port("sink", testbed.plink.rate_bps,
                                     Link(sim, 10, receiver=delivered.append))
    testbed.receiver_switch.set_route("server", "sink")
    testbed.sender_switch.set_route("server", testbed.plink.forward_port_name)

    count = {"n": 0}

    def inject():
        packet = Packet(size=MTU_FRAME, dst="server", flow_id=count["n"])
        count["n"] += 1
        testbed.sender_switch.forward(packet)
        if sim.now < 120 * MS:
            sim.schedule(2_000, inject)

    sim.schedule(0, inject)

    # At t = 30 ms the fiber starts corrupting at 5e-3 (a dirty connector).
    def start_corrupting():
        print(f"t={sim.now / MS:6.1f} ms  fiber starts corrupting (loss 5e-3)")
        testbed.plink.set_loss(
            BernoulliLoss(5e-3, np.random.default_rng(1)))

    sim.schedule_at(30 * MS, start_corrupting)
    sim.run(until=125 * MS)

    detected_ns, loss_rate = daemon.detected
    print(f"t={detected_ns / MS:6.1f} ms  corruptd detected loss rate "
          f"{loss_rate:.2e} and notified "
          f"{testbed.plink.sender_switch.name!r}")
    print(f"          LinkGuardian active: {testbed.plink.active} "
          f"(N={testbed.plink.sender.n_copies} retx copies)")
    stats = testbed.plink.summary()
    print(f"\nafter activation: {stats['loss_events']} losses detected, "
          f"{stats['recovered']} recovered, {stats['timeouts']} escaped")
    print(f"delivered {len(delivered)}/{count['n']} injected packets "
          f"(gap = losses before activation)")


if __name__ == "__main__":
    main()
