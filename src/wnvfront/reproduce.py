"""The paper battery: regime cases, their expected verdicts and the threshold brackets.

``wnvfront reproduce-paper`` and the acceptance tests both run from these
definitions, and the ``[run]`` config defaults take the brackets and the
search estimator from here.
"""

from __future__ import annotations

from typing import Mapping, Tuple

from .lyapunov import EstimatorConfig

# (h0, mu) -> expected verdict.  h0=0.6 is below the critical half-width, so
# its verdict turns on mu: it spreads only above mu* (about 0.87 for the
# reference coefficients and initial data).
CASES = {
    (2.0, 0.1): "Spreading",
    (1.0, 0.1): "Spreading",
    (0.6, 0.1): "Vanishing",
    (0.5, 0.1): "Vanishing",
    (0.6, 0.2): "Vanishing",
    (0.6, 1.0): "Spreading",
}
# the verdicts at this expansion rate bracket the critical half-width
BRACKET_MU = 0.1
# mu* is searched at this initial half-width
MU_STAR_H0 = 0.6
MU_BRACKET = (0.1, 1.0)
LSTAR_BRACKET = (0.3, 3.0)
# cheaper estimator settings used inside the L* bisection
SEARCH_ESTIMATOR = EstimatorConfig(J=128, dt=0.02, horizon=400.0)


def halfwidth_bracket(verdicts: Mapping[Tuple[float, float], str]) -> Tuple[float, float]:
    """(largest vanishing h0, smallest spreading h0) at BRACKET_MU; NaNs if they do not order."""
    van = [h0 for (h0, mu), v in verdicts.items() if mu == BRACKET_MU and v == "Vanishing"]
    spr = [h0 for (h0, mu), v in verdicts.items() if mu == BRACKET_MU and v == "Spreading"]
    if van and spr and max(van) < min(spr):
        return max(van), min(spr)
    return float("nan"), float("nan")
