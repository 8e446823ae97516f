"""The Catfish adaptive client — Algorithm 1 of the paper.

The decision rule lives in
:class:`~repro.runtime.policy.Algorithm1Policy` (see its docstring for
the back-off algorithm) and the execution skeleton in
:class:`~repro.runtime.session.PolicySession`; an adaptive client is the
one handed the other.  This module keeps the names client code has
always imported from here.
"""

from __future__ import annotations

from ..runtime.policy import AdaptiveParams
from .predictors import most_recent

#: The paper's default ``predUtil`` — kept as a public alias of the
#: canonical :func:`repro.client.predictors.most_recent`.
most_recent_utilization = most_recent

__all__ = ["AdaptiveParams", "most_recent_utilization"]
