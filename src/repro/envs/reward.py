"""Reward computation and action-to-routing mapping.

The reward (paper Equation 2) is ``-U_agent / U_optimal``: the achieved
maximum link utilisation of the agent's routing on the new demand matrix,
normalised by the LP optimum for that matrix.  The optimum depends only on
(network, DM), so it is memoised — cyclical training sequences revisit the
same matrices thousands of times.  The numerator side (softmin translation
and flow simulation) runs on the vectorized batch engine
(:mod:`repro.engine`), which processes all destinations in one stacked
array program per step.

Dynamic scenarios pass a *different* network per step (the one a
:class:`~repro.graphs.dynamics.NetworkTimeline` puts in force): both the
achieved utilisation and the LP-optimum denominator are then measured on
that step's perturbed variant.  Cache keying stays correct for free —
variants carry a delta fingerprint (``sha256(base || delta)``) in the
``_lp_fingerprint`` slot every keyed cache reads, so a five-step outage
hits the same cached optimum five times and never collides with the base
graph's entries.

Action mappings
---------------
Policies emit raw real values; softmin routing needs strictly positive
weights and a positive γ:

* :func:`weights_from_action` — ``w = exp(scale * clip(a, -1, 1))``, giving
  a symmetric multiplicative range around 1;
* :func:`gamma_from_action` — an affine-sigmoid squash into
  ``[gamma_min, gamma_max]`` (used by the iterative environment, where the
  agent chooses γ; the one-shot environments fix γ as a hyperparameter).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.flows.lp import LinearProgramCache, OptimalUtilisationCache
from repro.flows.simulator import max_link_utilisation
from repro.graphs.network import Network
from repro.routing.softmin import softmin_routing
from repro.routing.strategy import RoutingStrategy

DEFAULT_WEIGHT_SCALE = 3.0
DEFAULT_GAMMA_RANGE = (0.5, 10.0)


def weights_from_action(action: np.ndarray, scale: float = DEFAULT_WEIGHT_SCALE) -> np.ndarray:
    """Map raw agent outputs to positive softmin edge weights."""
    action = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
    return np.exp(scale * action)


def gamma_from_action(
    value: float, gamma_range: tuple[float, float] = DEFAULT_GAMMA_RANGE
) -> float:
    """Squash one raw output into the softmin spread range."""
    low, high = gamma_range
    if not 0.0 < low < high:
        raise ValueError(f"need 0 < low < high, got {gamma_range}")
    return low + (high - low) / (1.0 + float(np.exp(-float(value))))


class RewardComputer:
    """Computes Equation 2 rewards with a shared LP cache.

    Parameters
    ----------
    cache:
        Optional shared :class:`OptimalUtilisationCache`; environments used
        in the same experiment should share one so train and eval reuse
        solves.
    pruner:
        DAG conversion rule passed to softmin routing.
    lp_cache:
        Optional private :class:`LinearProgramCache` handed to a
        newly-created optimum cache, so one experiment's constraint
        structures can be isolated from the process-shared pool.
        Ignored when ``cache`` is given.
    """

    def __init__(
        self,
        cache: Optional[OptimalUtilisationCache] = None,
        pruner: str = "distance",
        lp_cache: Optional[LinearProgramCache] = None,
    ):
        self.cache = cache or OptimalUtilisationCache(lp_cache=lp_cache)
        self.pruner = pruner

    def routing_from_weights(
        self, network: Network, weights: np.ndarray, gamma: float
    ) -> RoutingStrategy:
        """Softmin-translate positive edge weights into a routing."""
        return softmin_routing(network, weights, gamma=gamma, pruner=self.pruner)

    def utilisation_ratio(
        self, network: Network, routing: RoutingStrategy, demand_matrix: np.ndarray
    ) -> float:
        """``U_agent / U_optimal`` for one DM (≥ 1 up to LP tolerance).

        An all-zero demand matrix has the defined result 1.0 (zero load is
        trivially optimal), so sparse traffic sequences evaluate without
        aborting mid-batch.
        """
        if not np.any(np.asarray(demand_matrix) > 0.0):
            return 1.0
        achieved = max_link_utilisation(network, routing, demand_matrix)
        return self.ratio_from_achieved(network, achieved, demand_matrix)

    def ratio_from_achieved(
        self, network: Network, achieved: float, demand_matrix: np.ndarray
    ) -> float:
        """Normalise an already-measured ``U_max`` by the cached LP optimum.

        Shares the zero-demand (ratio 1.0) and zero-optimal (error)
        semantics with :meth:`utilisation_ratio`, so batched callers that
        compute utilisations in bulk cannot drift from the scalar path.
        """
        if not np.any(np.asarray(demand_matrix) > 0.0):
            return 1.0
        optimal = self.cache.optimal_max_utilisation(network, demand_matrix)
        if optimal <= 0.0:
            raise ValueError("reward undefined for a zero optimal utilisation")
        return float(achieved) / optimal

    def reward(
        self,
        network: Network,
        weights: np.ndarray,
        gamma: float,
        demand_matrix: np.ndarray,
    ) -> tuple[float, dict]:
        """Equation 2: returns ``(reward, info)`` for one timestep."""
        routing = self.routing_from_weights(network, weights, gamma)
        ratio = self.utilisation_ratio(network, routing, demand_matrix)
        info = {
            "utilisation_ratio": ratio,
            "optimal_utilisation": self.cache.optimal_max_utilisation(network, demand_matrix),
        }
        return -ratio, info
