//! The switching stage (§4.4): price a planned migration for the arbiter
//! and charge the pipeline pause of the configured execution mode.

use ap_cluster::ClusterState;
use ap_pipesim::switching::PER_LAYER_CALL_OVERHEAD;
use ap_pipesim::{Partition, SwitchPlan};

use crate::switch_cost::SwitchCostModel;

/// How an approved switch is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchMode {
    /// AutoPipe's layer-by-layer migration (§4.4).
    FineGrained,
    /// The straw-man: drain, move, restart.
    StopRestart,
}

/// Prices [`SwitchPlan`]s with the learned [`SwitchCostModel`] and
/// charges the pause of the configured [`SwitchMode`].
pub struct SwitchExecutor {
    cost_model: SwitchCostModel,
    mode: SwitchMode,
}

impl SwitchExecutor {
    /// An executor in `mode` with the default cost model.
    pub fn new(mode: SwitchMode) -> Self {
        SwitchExecutor {
            cost_model: SwitchCostModel::default(),
            mode,
        }
    }

    /// Predicted switch cost in seconds (the arbiter's cost input).
    pub fn predict_cost(
        &self,
        plan: &SwitchPlan,
        iteration_time: f64,
        current: &Partition,
        state: &ClusterState,
    ) -> f64 {
        self.cost_model
            .predict(plan, iteration_time, current, state)
    }

    /// Pipeline pause actually charged at the switch point (the engine
    /// re-simulates the refill itself, so only non-refill components are
    /// charged).
    pub fn pause_seconds(
        &self,
        plan: &SwitchPlan,
        iteration_time: f64,
        current: &Partition,
        state: &ClusterState,
    ) -> f64 {
        match self.mode {
            SwitchMode::StopRestart => {
                current.in_flight as f64 * iteration_time + plan.raw_transfer_time(state)
            }
            SwitchMode::FineGrained => {
                // Transfers overlap with the draining pipeline's remaining
                // compute; only the uncovered tail plus per-layer call
                // overhead stalls anyone.
                let slack = (current.in_flight.saturating_sub(1)) as f64 * iteration_time;
                (plan.raw_transfer_time(state) - slack).max(0.0)
                    + PER_LAYER_CALL_OVERHEAD * plan.moved_layers.len() as f64
            }
        }
    }
}
