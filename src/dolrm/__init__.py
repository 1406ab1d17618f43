"""Online task scheduling that maximizes the long-run reward-to-cost ratio.

The learner sees a stream of typed tasks, picks one arm per task from the
type's menu, and observes noisy reward and cost. The main policy combines
optimistic reward estimates with pessimistic cost estimates and tracks the
optimal ratio through a projected stochastic approximation step. Baselines,
an exact offline oracle, and a seeded simulation harness round out the
package.
"""

__version__ = "0.1.0"
