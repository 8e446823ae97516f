"""The access-scheme registry: the five lines of every paper figure.

Baselines (paper §V): the TCP/IP socket solution on two Ethernet fabrics,
and FaRM-style "Fast messaging" / "RDMA offloading".  "Catfish" adds the
event-driven server, multi-issue offloading and the adaptive algorithm.
Ablation variants isolate each optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

TRANSPORT_TCP = "tcp"
TRANSPORT_RDMA = "rdma"

OFFLOAD_NEVER = "never"
OFFLOAD_ALWAYS = "always"
OFFLOAD_ADAPTIVE = "adaptive"
OFFLOAD_BANDIT = "bandit"

#: Offload-mode vocabulary → runtime path-policy names
#: (:data:`repro.runtime.policy.POLICY_NAMES`).  The scheme registry
#: predates the runtime layer, so the historical mode strings stay the
#: configuration surface and map onto policies here.
OFFLOAD_POLICIES = {
    OFFLOAD_NEVER: "always-fm",
    OFFLOAD_ALWAYS: "always-offload",
    OFFLOAD_ADAPTIVE: "algorithm1",
    OFFLOAD_BANDIT: "bandit",
}


@dataclass(frozen=True)
class SchemeSpec:
    """How one scheme composes transports and client behaviour."""

    name: str
    transport: str
    #: Server notification: "polling" or "event" (ignored for TCP).
    notification: str = "polling"
    offload: str = OFFLOAD_NEVER
    multi_issue: bool = False
    #: Whether the server broadcasts heartbeats (only useful to adaptive
    #: clients, but harmless otherwise).
    heartbeats: bool = False
    #: predUtil variant for adaptive clients: "latest" (the paper's),
    #: "ewma" or "trend" (the §VI future-work predictors).
    predictor: str = "latest"
    #: Default shard count: 1 = the paper's single server; > 1 runs the
    #: scheme through the sharded cluster (``repro.shard``), one full
    #: Catfish stack per shard behind a scatter-gather router.
    shards: int = 1
    #: The index behind the ring buffer: the paper's "rtree", or one of
    #: the §VI framework extensions "btree" / "cuckoo".  Every registered
    #: scheme is an R-tree one; :func:`scheme_spec` derives the KV specs
    #: from ``ExperimentConfig.index``.
    index: str = "rtree"

    @property
    def policy(self) -> str:
        """The runtime path-policy this scheme's offload mode maps to."""
        try:
            return OFFLOAD_POLICIES[self.offload]
        except KeyError:
            raise ValueError(
                f"unknown offload mode {self.offload!r}; "
                f"known: {sorted(OFFLOAD_POLICIES)}"
            ) from None


SCHEMES = {
    # The socket baselines; fabric (1G/40G) is chosen separately.
    "tcp": SchemeSpec(
        name="tcp",
        transport=TRANSPORT_TCP,
    ),
    # FaRM fast messaging: RDMA Write + per-connection polling threads.
    "fast-messaging": SchemeSpec(
        name="fast-messaging",
        transport=TRANSPORT_RDMA,
        notification="polling",
        offload=OFFLOAD_NEVER,
    ),
    # FaRM offloading: every search is a one-at-a-time one-sided traversal.
    "rdma-offloading": SchemeSpec(
        name="rdma-offloading",
        transport=TRANSPORT_RDMA,
        notification="polling",
        offload=OFFLOAD_ALWAYS,
        multi_issue=False,
    ),
    # The full system: event-driven server, adaptive clients, multi-issue.
    "catfish": SchemeSpec(
        name="catfish",
        transport=TRANSPORT_RDMA,
        notification="event",
        offload=OFFLOAD_ADAPTIVE,
        multi_issue=True,
        heartbeats=True,
    ),
    # -- ablation variants ------------------------------------------------
    "fast-messaging-event": SchemeSpec(
        name="fast-messaging-event",
        transport=TRANSPORT_RDMA,
        notification="event",
        offload=OFFLOAD_NEVER,
    ),
    "rdma-offloading-multi": SchemeSpec(
        name="rdma-offloading-multi",
        transport=TRANSPORT_RDMA,
        notification="polling",
        offload=OFFLOAD_ALWAYS,
        multi_issue=True,
    ),
    "catfish-polling": SchemeSpec(
        name="catfish-polling",
        transport=TRANSPORT_RDMA,
        notification="polling",
        offload=OFFLOAD_ADAPTIVE,
        multi_issue=True,
        heartbeats=True,
    ),
    "catfish-single-issue": SchemeSpec(
        name="catfish-single-issue",
        transport=TRANSPORT_RDMA,
        notification="event",
        offload=OFFLOAD_ADAPTIVE,
        multi_issue=False,
        heartbeats=True,
    ),
    # -- future-work variants (paper §VI / §V-B) ----------------------------
    "catfish-ewma": SchemeSpec(
        name="catfish-ewma",
        transport=TRANSPORT_RDMA,
        notification="event",
        offload=OFFLOAD_ADAPTIVE,
        multi_issue=True,
        heartbeats=True,
        predictor="ewma",
    ),
    "catfish-trend": SchemeSpec(
        name="catfish-trend",
        transport=TRANSPORT_RDMA,
        notification="event",
        offload=OFFLOAD_ADAPTIVE,
        multi_issue=True,
        heartbeats=True,
        predictor="trend",
    ),
    # Beyond the paper: the full Catfish stack replicated per shard
    # behind the client-side scatter-gather spatial router.
    "catfish-sharded": SchemeSpec(
        name="catfish-sharded",
        transport=TRANSPORT_RDMA,
        notification="event",
        offload=OFFLOAD_ADAPTIVE,
        multi_issue=True,
        heartbeats=True,
        shards=4,
    ),
    # Latency bandit: learns the mode from its own observed latencies; no
    # heartbeats required.
    "catfish-bandit": SchemeSpec(
        name="catfish-bandit",
        transport=TRANSPORT_RDMA,
        notification="event",
        offload=OFFLOAD_BANDIT,
        multi_issue=True,
        heartbeats=False,
    ),
}


#: The schemes a B+tree or cuckoo index runs under.
KV_CAPABLE = ("fast-messaging", "rdma-offloading", "catfish",
              "catfish-bandit")


def scheme_spec(name: str, index: str = "rtree") -> SchemeSpec:
    """Scheme ``name`` over ``index``.

    Over a B+tree or cuckoo table (paper §VI) the four
    :data:`KV_CAPABLE` schemes all run the event-driven server with
    multi-issue reads and heartbeats on, so they differ in the path
    policy only; the spec is named ``{index}:{name}``.
    """
    if index != "rtree" and name not in KV_CAPABLE:
        raise ValueError(
            f"a {index} index runs under {', '.join(KV_CAPABLE)}; "
            f"not {name!r}"
        )
    try:
        spec = SCHEMES[name]
    except KeyError:
        raise KeyError(
            f"unknown scheme {name!r}; known: {sorted(SCHEMES)}"
        ) from None
    if index == "rtree":
        return spec
    return replace(spec, name=f"{index}:{name}", index=index,
                   notification="event", multi_issue=True, heartbeats=True)
