"""Aggregated clients: one endpoint standing in for thousands of users.

Simulating a million independent client processes is hopeless at
discrete-event granularity; simulating a million *users* is not, because
what the server observes is the superposed arrival process.  An
:class:`AggregateClient` is one simulated endpoint that owns the
superposed arrivals of ``users_per_aggregate`` virtual users: each
arrival is attributed to a concrete (uniformly drawn) virtual user id,
tracked in a bitmap for coverage accounting, and carried through the
mux so per-user identity survives for dedup/metrics — while the event
count stays proportional to the *request* rate, not the user count.

The aggregate is strictly open-loop: the arrival loop only ever sleeps
until the next arrival.  When its bounded in-flight window is full the
arrival is shed and *counted* — it never blocks, so a slow server
cannot retard the offered load (the coordinated-omission trap that
closed-loop drivers fall into).
"""

from __future__ import annotations

import random
from typing import Generator, Optional

from ..client.base import OP_SEARCH, Request
from ..sim.kernel import Simulator
from ..sim.monitor import LatencyRecorder
from .arrivals import ArrivalGenerator
from .mux import ConnectionMux, OK, TrafficJob


class AggregateClient:
    """One endpoint issuing the superposed load of N virtual users."""

    def __init__(
        self,
        sim: Simulator,
        aggregate_id: int,
        n_users: int,
        window: int,
        generator: ArrivalGenerator,
        users_rng: random.Random,
        workload_rng: random.Random,
        scale_gen,
        mux: ConnectionMux,
        sojourn: LatencyRecorder,
        tenant_sojourn: Optional[dict] = None,
        hotspots=None,
    ):
        if n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {n_users}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.sim = sim
        self.aggregate_id = aggregate_id
        self.n_users = n_users
        self.window = window
        self.generator = generator
        self.users_rng = users_rng
        self.workload_rng = workload_rng
        self.scale_gen = scale_gen
        self.mux = mux
        self.sojourn = sojourn
        self.tenant_sojourn = tenant_sojourn
        #: Optional Zipf-hotspot location source; None keeps the uniform
        #: draw (the fingerprint-pinned default).
        self.hotspots = hotspots

        #: One bit per virtual user; counts distinct users that arrived.
        self._touched = bytearray((n_users + 7) // 8)
        self.users_touched = 0
        self.arrivals = 0
        self.issued = 0
        self.in_flight = 0
        self.shed_window = 0
        #: Timestamps of window sheds, kept when the mux records (phase
        #: analysis, like the mux's).
        self.shed_times = []

    def _touch(self, user_id: int) -> None:
        byte, bit = user_id >> 3, 1 << (user_id & 7)
        if not self._touched[byte] & bit:
            self._touched[byte] |= bit
            self.users_touched += 1

    def run(self, duration: float) -> Generator:
        """The arrival loop: one sim process per aggregate."""
        sim = self.sim
        record = self.mux.record
        for t, tenant in self.generator.arrivals(duration, start=sim.now):
            delay = t - sim.now
            if delay > 0.0:
                yield sim.timeout(delay)
            self.arrivals += 1
            user_id = self.users_rng.randrange(self.n_users)
            self._touch(user_id)
            if self.in_flight >= self.window:
                self.shed_window += 1
                if record:
                    self.shed_times.append(sim.now)
                continue
            job = TrafficJob(
                aggregate_id=self.aggregate_id,
                seq=self.arrivals - 1,
                user_id=user_id,
                tenant=tenant,
                request=Request(
                    OP_SEARCH,
                    (self.hotspots.next_rect(self.workload_rng,
                                             self.scale_gen)
                     if self.hotspots is not None
                     else self.scale_gen.next_rect(self.workload_rng)),
                ),
                t_arrival=sim.now,
                on_done=self._done,
            )
            if self.mux.offer(job):
                self.in_flight += 1
                self.issued += 1

    def _done(self, job: TrafficJob) -> None:
        self.in_flight -= 1
        if job.status == OK:
            self.sojourn.record(job.sojourn)
            if self.tenant_sojourn is not None:
                self.tenant_sojourn[job.tenant].record(job.sojourn)
