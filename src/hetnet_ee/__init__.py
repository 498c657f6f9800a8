"""Energy-efficient power allocation equilibria for two-tier networks.

A macro cell (leader) and several small cells (followers) share K
orthogonal carriers and independently maximize bits-per-joule.  The
package solves the hierarchical equilibrium in closed form when small-cell
interference is negligible (:func:`solve_sparse`) and by per-carrier
candidate search when it is not (:func:`solve_dense`), provides Nash and
best-channel baselines, certifies every equilibrium with deviation oracles
(an exact bound for unilateral deviations, an exact bi-level certificate
for the Stackelberg leader), and drives seeded Monte-Carlo sweeps from the
``hetnet-ee`` CLI.
"""

from .baselines import IterationReport, solve_best_channel, solve_nash
from .dense import solve_dense
from .efficiency import EfficiencyModel, optimal_sinr
from .harness import ScenarioConfig, run_sweep, summarize, write_records
from .model import EquilibriumResult, NetworkInstance, sample_instance, utility
from .oracle import (
    DeviationReport,
    brute_force_stackelberg,
    verify_follower,
    verify_leader_stackelberg,
    verify_nash,
)
from .sparse import solve_sparse

__version__ = "0.1.0"

__all__ = [
    "DeviationReport",
    "EfficiencyModel",
    "EquilibriumResult",
    "IterationReport",
    "NetworkInstance",
    "ScenarioConfig",
    "brute_force_stackelberg",
    "optimal_sinr",
    "run_sweep",
    "sample_instance",
    "solve_best_channel",
    "solve_dense",
    "solve_nash",
    "solve_sparse",
    "summarize",
    "utility",
    "verify_follower",
    "verify_leader_stackelberg",
    "verify_nash",
    "write_records",
]
