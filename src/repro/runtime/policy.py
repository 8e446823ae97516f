"""Pluggable path-selection policies for the unified runtime layer.

The paper's core idea is a per-request *choice* between two ways of
reaching the same data: fast messaging (the server answers) and RDMA
offloading (the client traverses the tree with one-sided reads).  RFP
frames exactly this server-reply vs. remote-fetch decision as a general
paradigm — so the decision logic is factored out of the session classes
into small policy objects implementing one protocol:

* :class:`AlwaysFmPolicy` — every read goes through the server (the
  "fast messaging" baseline);
* :class:`AlwaysOffloadPolicy` — every read is a one-sided traversal
  (the "RDMA offloading" baseline);
* :class:`Algorithm1Policy` — the paper's adaptive back-off rule
  (Algorithm 1), including the predictor hook and the stale-heartbeat
  guard, plus a latency guard that takes the measured-faster arm while
  the heartbeat is live;
* :class:`BanditPolicy` — the ε-greedy latency learner (paper §V-B
  future work).

A policy only *decides and observes*; executing the request — retry,
circuit breaking, tracing, counters — is threaded uniformly by
:class:`~repro.runtime.session.PolicySession`.

Layering note: this module must not import :mod:`repro.client` at module
level (client sessions are built *on top of* the runtime layer), so the
few client-side defaults are resolved lazily.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from statistics import median_high
from typing import Callable, Deque, Dict, Optional

from ..sim.kernel import Simulator

#: The two access paths of the paper (values match the historical trace
#: annotations, so pre-refactor trace consumers keep working).
PATH_FM = "fast-messaging"
PATH_OFFLOAD = "offload"

#: Bandit arm labels: the keys of ``BanditPolicy.estimates`` and
#: ``mode_counts``.
FAST_MESSAGING = "fm"
OFFLOADING = "offload"

#: :class:`BanditPolicy`'s exploration rate (share of decisions that
#: pick an arm at random), and the weight of the newest sample in each
#: arm's latency average.
BANDIT_EPSILON = 0.1
BANDIT_ALPHA = 0.3

#: :class:`Algorithm1Policy`'s latency guard: each arm's estimate is the
#: median of its last ``GUARD_WINDOW`` observed latencies, and every
#: ``GUARD_PROBE_PERIOD``-th guard decision takes the arm the medians do
#: not prefer, so that arm's estimate stays fresh.
GUARD_WINDOW = 9
GUARD_PROBE_PERIOD = 16


@dataclass(frozen=True)
class AdaptiveParams:
    """The tunables of Algorithm 1 (paper defaults: N=8, T=95%, Inv=10ms)."""

    N: int = 8
    T: float = 0.95
    Inv: float = 10e-3

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not 0.0 < self.T <= 1.0:
            raise ValueError(f"T must be in (0, 1], got {self.T}")
        if self.Inv <= 0:
            raise ValueError(f"Inv must be > 0, got {self.Inv}")


class PathPolicy:
    """Protocol + no-op base for per-request path selection.

    ``decide_offload`` is called once per offloadable request and may
    mutate policy state (drain a budget, draw from an RNG).  The session
    then reports what actually happened through the ``note_*`` hooks
    (the decision may be demoted to fast messaging by an open circuit
    breaker) and finally ``observe`` with the executed path and its
    latency.  The split keeps every policy usable standalone while the
    generic session owns retry/breaker/tracing uniformly.
    """

    name = "policy"
    #: Component name the session traces this policy's requests under.
    trace_component = "policy"

    def decide_offload(self) -> bool:
        """True to offload the next read; may mutate policy state."""
        raise NotImplementedError

    # -- outcome hooks (no-ops by default) ---------------------------------

    def note_offload(self) -> None:
        """The offload decision stood (breaker allowed it)."""

    def note_fm(self, forced: bool = False) -> None:
        """Fast messaging chosen (``forced`` = open breaker demoted an
        offload decision)."""

    def note_failover(self) -> None:
        """An offloaded request failed over to fast messaging."""

    def observe(self, request, path: str, elapsed: float,
                failed_over: bool = False) -> None:
        """The executed path and its end-to-end latency."""

    # -- introspection ------------------------------------------------------

    def offload_annotations(self) -> Dict[str, object]:
        """Trace attributes for an offload decision."""
        return {}

    def fm_annotations(self) -> Dict[str, object]:
        """Trace attributes for a fast-messaging decision."""
        return {}


class AlwaysFmPolicy(PathPolicy):
    """Every request goes through the server (fast-messaging baseline)."""

    name = "always-fm"

    def decide_offload(self) -> bool:
        return False

    def fm_annotations(self) -> Dict[str, object]:
        return {"reason": "always-fm"}


class AlwaysOffloadPolicy(PathPolicy):
    """Every read is a one-sided traversal (RDMA-offloading baseline)."""

    name = "always-offload"

    def decide_offload(self) -> bool:
        return True

    def offload_annotations(self) -> Dict[str, object]:
        return {"reason": "always-offload"}


class Algorithm1Policy(PathPolicy):
    """The Catfish adaptive back-off rule — Algorithm 1 of the paper.

    Each client autonomously decides, per search, between fast messaging
    and RDMA offloading using a binary-exponential-back-off-style rule:

    * the server's heartbeat (CPU utilization) lands in the client's
      ``u_serv`` mailbox at most every ``Inv``;
    * when the predicted utilization exceeds threshold ``T`` (95%), the
      client offloads its next ``n`` searches, ``n`` drawn uniformly
      from the current back-off window ``[(r_busy-1)*N, r_busy*N)`` —
      randomization de-synchronizes the clients so they do not all
      stampede back to the server at once;
    * consecutive busy observations extend the window without upper
      bound;
    * **a missing heartbeat means "do not offload"**: the likely cause
      is a saturated server link, and offloading consumes *more*
      bandwidth.  The client tells "missing" apart from "fresh heartbeat
      reporting 0.0 utilization" by the mailbox sequence number, not by
      the value — a server that is genuinely idle still counts as a
      (non-busy) observation.

    Lines 5-23 only ever say "offload" when the server is past ``T``.
    Below that, a **latency guard** may still offload: when the last
    heartbeat check found a fresh heartbeat (the link is live, so the
    missing-heartbeat rule does not apply) and the median of the client's
    last ``GUARD_WINDOW`` offload latencies is below that of its last
    ``GUARD_WINDOW`` fast-messaging latencies.  Every
    ``GUARD_PROBE_PERIOD``-th guard decision takes the other arm, so both
    estimates stay fresh.  The guard draws no RNG and leaves ``r_busy``
    and ``r_off`` alone.

    ``mailbox`` is the ``u_serv`` heartbeat mailbox of the session's
    fast-messaging endpoint.
    """

    name = "algorithm1"
    trace_component = "adaptive"
    #: Introspection counts, summed cluster-wide as ``adaptive.*``.
    COUNTER_FIELDS = (
        "busy_observations", "backoff_extensions",
        "heartbeats_consumed", "heartbeats_missing",
        "decisions_offload", "decisions_fm",
        "stale_resets", "offload_failovers",
        "guard_offloads", "guard_probes",
    )

    def __init__(
        self,
        sim: Simulator,
        mailbox,
        params: Optional[AdaptiveParams] = None,
        rng: Optional[random.Random] = None,
        pred_util: Optional[Callable[[float], float]] = None,
        stale_after_missing: Optional[int] = None,
    ):
        self.sim = sim
        self.mailbox = mailbox
        self.params = params if params is not None else AdaptiveParams()
        self.rng = rng or random.Random(0)
        if pred_util is None:
            # Lazy: repro.client sits above the runtime layer.
            from ..client.predictors import most_recent
            pred_util = most_recent
        self.pred_util = pred_util
        #: When set, this many consecutive missing-heartbeat observations
        #: mark the utilization picture "stale": any remaining offload
        #: budget (granted under now-unverifiable information) is
        #: cancelled until a fresh heartbeat arrives.
        self.stale_after_missing = stale_after_missing
        # Algorithm 1 state.
        self.r_busy = 0
        self.r_off = 0
        self._t0 = sim.now
        self._last_seq = -1
        self._missing_streak = 0
        # Latency-guard state: each arm's recent latencies, the guard's
        # decision count (for the probe period), and why the last offload
        # decision offloaded.
        self._latencies: Dict[str, Deque[float]] = {
            PATH_FM: deque(maxlen=GUARD_WINDOW),
            PATH_OFFLOAD: deque(maxlen=GUARD_WINDOW),
        }
        self._guard_decisions = 0
        self._reason = "budget"
        # Introspection counters.
        self.busy_observations = 0
        self.backoff_extensions = 0
        self.heartbeats_consumed = 0
        self.heartbeats_missing = 0
        self.decisions_offload = 0
        self.decisions_fm = 0
        self.stale_resets = 0
        self.offload_failovers = 0
        self.guard_offloads = 0
        self.guard_probes = 0

    def decide_offload(self) -> bool:
        """One pass of lines 5-23, then the latency guard if they chose
        fast messaging; True means offload this search."""
        params = self.params
        utilization = 0.0
        now = self.sim.now
        # Lines 7-11: consume a heartbeat if at least Inv elapsed and one
        # actually arrived.  Freshness is the mailbox *sequence number*
        # advancing, never the value being nonzero: a fresh heartbeat
        # reporting exactly 0.0 utilization is a real (non-busy)
        # observation, while an unchanged seq means "missing heartbeat",
        # which deliberately reads as "do not offload".
        if now - self._t0 > params.Inv:
            fresh = self.mailbox.consume_fresh(self._last_seq)
            if fresh is not None:
                self._last_seq, raw = fresh
                utilization = self.pred_util(raw)
                self._t0 = now
                self.heartbeats_consumed += 1
                self._missing_streak = 0
            else:
                self.heartbeats_missing += 1
                self._missing_streak += 1
                stale = self.stale_after_missing
                if (stale is not None and self._missing_streak >= stale
                        and (self.r_off or self.r_busy)):
                    # The heartbeat has been silent for `stale` whole
                    # intervals (blackout / saturated link / dropped
                    # beats): the busy picture the current back-off
                    # window was granted under is no longer verifiable.
                    # Cancel the remaining offload budget — "missing
                    # means do not offload" now also applies to budget
                    # granted *before* the silence began.
                    self.r_off = 0
                    self.r_busy = 0
                    self.stale_resets += 1
        # Lines 12-17: extend or reset the back-off window.
        if utilization > params.T and self.r_off <= self.r_busy * params.N:
            self.r_busy += 1
            self.r_off = (
                self.rng.randrange(params.N)
                + (self.r_busy - 1) * params.N
            )
            self.busy_observations += 1
            if self.r_busy > 1:
                self.backoff_extensions += 1
        else:
            self.r_busy = 0
        # Lines 18-23: drain the offload budget.
        if self.r_off > 0:
            self.r_off -= 1
            self._reason = "budget"
            return True
        return self._guard()

    def _guard(self) -> bool:
        """Offload a read Algorithm 1 sent to fast messaging when a live
        heartbeat vouches for the link and offloading measured faster."""
        if not self.heartbeats_consumed or self._missing_streak:
            return False
        fm = self._latencies[PATH_FM]
        off = self._latencies[PATH_OFFLOAD]
        if not fm:
            return False
        if not off:
            offload = probe = True  # one offload sample to compare with
        else:
            self._guard_decisions += 1
            offload = median_high(off) < median_high(fm)
            probe = self._guard_decisions % GUARD_PROBE_PERIOD == 0
            if probe:
                offload = not offload
        if probe:
            self.guard_probes += 1
        if offload:
            self.guard_offloads += 1
            self._reason = "guard"
        return offload

    def note_offload(self) -> None:
        self.decisions_offload += 1

    def note_fm(self, forced: bool = False) -> None:
        self.decisions_fm += 1

    def note_failover(self) -> None:
        self.offload_failovers += 1

    def observe(self, request, path: str, elapsed: float,
                failed_over: bool = False) -> None:
        self._latencies[path].append(elapsed)

    def offload_annotations(self) -> Dict[str, object]:
        return {"reason": self._reason, "r_busy": self.r_busy,
                "r_off": self.r_off}

    def fm_annotations(self) -> Dict[str, object]:
        return {"r_busy": self.r_busy}


class LatencyEstimate:
    """EWMA of one arm's latency, optimistic until first observed."""

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.value: Optional[float] = None
        self.observations = 0

    def update(self, sample: float) -> None:
        self.observations += 1
        if self.value is None:
            self.value = sample
        else:
            self.value = self.alpha * sample + (1 - self.alpha) * self.value


class BanditPolicy(PathPolicy):
    """ε-greedy latency bandit over the two access paths (paper §V-B).

    Needs no heartbeats at all — the reward signal is the client's own
    observed per-path latency with exponential forgetting — and under
    sustained server saturation it parks on offloading instead of
    probing back, exactly the behaviour the paper found Algorithm 1
    lacking.

    ``mode_counts`` counts *choices*; the latency estimates are updated
    for the path that actually *executed* (identical whenever no circuit
    breaker demotes a choice, which is the pre-breaker behaviour
    bit-for-bit).
    """

    name = "bandit"
    trace_component = "bandit"
    #: Counts summed cluster-wide as ``bandit.*``.
    COUNTER_FIELDS = ("offload_failovers", "breaker_demotions",
                      "explorations")

    def __init__(self, rng: Optional[random.Random] = None):
        self.rng = rng or random.Random(0)
        self.estimates = {
            FAST_MESSAGING: LatencyEstimate(BANDIT_ALPHA),
            OFFLOADING: LatencyEstimate(BANDIT_ALPHA),
        }
        self.explorations = 0
        self.mode_counts = {FAST_MESSAGING: 0, OFFLOADING: 0}
        self.offload_failovers = 0
        self.breaker_demotions = 0

    def _choose_mode(self) -> str:
        fm_est = self.estimates[FAST_MESSAGING]
        off_est = self.estimates[OFFLOADING]
        # Try each arm once before exploiting.
        if fm_est.value is None:
            return FAST_MESSAGING
        if off_est.value is None:
            return OFFLOADING
        if self.rng.random() < BANDIT_EPSILON:
            self.explorations += 1
            return self.rng.choice((FAST_MESSAGING, OFFLOADING))
        return (FAST_MESSAGING if fm_est.value <= off_est.value
                else OFFLOADING)

    def decide_offload(self) -> bool:
        mode = self._choose_mode()
        self.mode_counts[mode] += 1
        return mode == OFFLOADING

    def note_fm(self, forced: bool = False) -> None:
        if forced:
            self.breaker_demotions += 1

    def note_failover(self) -> None:
        self.offload_failovers += 1

    def observe(self, request, path: str, elapsed: float,
                failed_over: bool = False) -> None:
        arm = OFFLOADING if path == PATH_OFFLOAD else FAST_MESSAGING
        self.estimates[arm].update(elapsed)

    def offload_annotations(self) -> Dict[str, object]:
        return {"mode": OFFLOADING}

    def fm_annotations(self) -> Dict[str, object]:
        return {"mode": FAST_MESSAGING}


#: Policy-name registry: the vocabulary `SchemeSpec.policy` maps onto.
POLICY_NAMES = (
    AlwaysFmPolicy.name,
    AlwaysOffloadPolicy.name,
    Algorithm1Policy.name,
    BanditPolicy.name,
)
