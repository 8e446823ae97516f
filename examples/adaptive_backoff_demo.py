#!/usr/bin/env python3
"""Watch Algorithm 1 switch a client between access methods in real time.

Builds one Catfish deployment and injects a square-wave background load
on the server's cores: idle -> saturated -> idle.  A probe client runs
throughout; the demo prints a timeline of the server utilization it saw
in heartbeats and the fraction of its searches it offloaded in each
window — the catfish turning its body as the water changes.
"""

from repro.client import (
    AdaptiveParams,
    ClientStats,
    OffloadEngine,
    Request,
)
from repro.client.fm_client import FmSession
from repro.hw import Host
from repro.net import IB_100G, Network
from repro.rtree import Rect
from repro.runtime import Algorithm1Policy, PolicySession
from repro.server import EVENT, FastMessagingServer, HeartbeatService, RTreeServer
from repro.sim import Simulator
from repro.workloads import uniform_dataset


def main():
    sim = Simulator()
    net = Network(sim, IB_100G)
    server_host = Host(sim, "server", IB_100G, cores=4)
    net.attach_server(server_host)
    server = RTreeServer(sim, server_host, uniform_dataset(10_000, seed=1),
                         max_entries=32)
    fm_server = FastMessagingServer(sim, server, net, mode=EVENT)
    heartbeats = HeartbeatService(
        sim, server_host.cpu.window_utilization, interval=0.2e-3
    )

    client_host = Host(sim, "probe", IB_100G, cores=2)
    conn = fm_server.open_connection(client_host)
    stats = ClientStats()
    fm = FmSession(sim, conn, 0, stats)
    heartbeats.subscribe(conn.response_ring,
                         lambda hb: conn.server_post_response(hb))
    engine = OffloadEngine(sim, conn.client_end,
                           server.offload_descriptor(), server.costs, stats)
    session = PolicySession(
        sim, fm, engine, stats,
        Algorithm1Policy(sim, fm.mailbox,
                         params=AdaptiveParams(N=8, T=0.9, Inv=0.2e-3)),
    )
    heartbeats.start()

    def background_load(start, duration):
        """Saturate every server core for [start, start+duration)."""
        def burner():
            yield sim.timeout(start)
            while sim.now < start + duration:
                yield from server_host.cpu.execute(0.1e-3)
        for _ in range(server_host.cpu.capacity):
            sim.process(burner())

    # idle [0, 5ms) -> saturated [5ms, 15ms) -> idle again
    background_load(start=5e-3, duration=10e-3)

    timeline = []

    def probe():
        query = Rect(0.4, 0.4, 0.401, 0.401)
        window_start, window_offloads, window_total = 0.0, 0, 0
        while sim.now < 25e-3:
            before = stats.offloaded_requests
            yield from session.execute(Request("search", query))
            window_total += 1
            window_offloads += stats.offloaded_requests - before
            if sim.now - window_start >= 1e-3:
                timeline.append((sim.now, window_offloads, window_total))
                window_start, window_offloads, window_total = sim.now, 0, 0
            yield sim.timeout(20e-6)

    done = sim.process(probe())
    sim.run_until_triggered(done)

    print("time(ms)  server-load  offloaded-searches")
    for t, offloads, total in timeline:
        phase = "SATURATED" if 5e-3 <= t <= 15.5e-3 else "idle"
        bar = "#" * offloads + "." * (total - offloads)
        print(f"{t * 1e3:7.1f}   {phase:>9}   {bar} ({offloads}/{total})")

    print(f"\nheartbeats delivered: {fm.heartbeats_seen}, "
          f"busy observations: {session.policy.busy_observations}, "
          f"back-off extensions: {session.policy.backoff_extensions}")
    print("offloading concentrates inside the saturated window and "
          "drains away once\nthe heartbeats show the server recovered — "
          "Algorithm 1 in action.")


if __name__ == "__main__":
    main()
