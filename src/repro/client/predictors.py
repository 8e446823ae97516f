"""Utilization predictors for Algorithm 1's ``predUtil`` hook.

The paper uses the most recent heartbeat value as the prediction and
explicitly flags smarter prediction as future work (§VI: "the server can
periodically predict the overloading period ... In this way, clients can
make a more accurate decision").  These client-side predictors implement
that future work without protocol changes — they only post-process the
heartbeat stream:

* :func:`most_recent` — the paper's default (identity);
* :class:`EwmaPredictor` — exponentially weighted moving average, damping
  one-off spikes so clients don't stampede off a momentarily busy server;
* :class:`TrendPredictor` — first-order extrapolation, reacting *before*
  the server actually saturates when utilization is climbing.
"""

from __future__ import annotations

#: Weight of the newest heartbeat in :class:`EwmaPredictor`'s average.
EWMA_ALPHA = 0.5
#: Multiple of the last heartbeat-to-heartbeat change that
#: :class:`TrendPredictor` adds to the newest reading.
TREND_GAIN = 1.0


def most_recent(u_serv: float) -> float:
    """The paper's default: predict with the latest reading."""
    return u_serv


class EwmaPredictor:
    """Exponentially weighted moving average of the heartbeat stream
    (weight :data:`EWMA_ALPHA` on the newest reading)."""

    def __init__(self):
        self._estimate: float = 0.0
        self._seen_any = False

    def __call__(self, u_serv: float) -> float:
        if not self._seen_any:
            self._estimate = u_serv
            self._seen_any = True
        else:
            self._estimate = (
                EWMA_ALPHA * u_serv + (1.0 - EWMA_ALPHA) * self._estimate
            )
        return self._estimate


class TrendPredictor:
    """Linear extrapolation: ``u + TREND_GAIN * (u - previous)``, clamped.

    A rising utilization curve predicts *above* the latest reading, so
    clients start offloading one heartbeat earlier; a falling curve
    predicts below, so they return to fast messaging sooner.
    """

    def __init__(self):
        self._previous: float = 0.0
        self._seen_any = False

    def __call__(self, u_serv: float) -> float:
        if not self._seen_any:
            self._seen_any = True
            prediction = u_serv
        else:
            prediction = u_serv + TREND_GAIN * (u_serv - self._previous)
        self._previous = u_serv
        return min(max(prediction, 0.0), 1.0)


PREDICTORS = {
    "latest": lambda: most_recent,
    "ewma": EwmaPredictor,
    "trend": TrendPredictor,
}


def make_predictor(name: str):
    """Instantiate a predictor by registry name."""
    try:
        factory = PREDICTORS[name]
    except KeyError:
        raise KeyError(
            f"unknown predictor {name!r}; known: {sorted(PREDICTORS)}"
        ) from None
    return factory()
