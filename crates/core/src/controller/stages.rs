//! The stage traits the decision pipeline is composed of.
//!
//! One decision point walks the stages in order:
//!
//! ```text
//! Verify ─▶ Observe ─▶ Detect ─▶ Enumerate ─▶ Score ─▶ Arbitrate ─▶ Switch
//! ```
//!
//! Each trait owns one concern of §4 of the paper; the default
//! implementations live in the sibling modules ([`super::verify`],
//! [`super::observe`], [`super::detect`], [`super::enumerate`],
//! [`super::score`], [`super::arbitrate`], [`super::switch`]) and are
//! composed by [`super::AutoPipeController`]. Alternative compositions
//! (the multi-job planner, the enhanced-PipeDream planner) reuse the same
//! implementations through these interfaces.

use std::collections::VecDeque;

use ap_cluster::{ClusterState, GpuId, ResourceChange};
use ap_models::ModelProfile;
use ap_pipesim::{Calibration, Framework, Partition, ScheduleKind, SwitchPlan, SyncScheme};
use ap_planner::MoveKind;

use crate::arbiter::ArbiterInput;
use crate::metrics::ProfilingMetrics;

/// Everything a scorer needs to evaluate a candidate partition: the model,
/// the modeling knobs, the recent observation history (for learned
/// scorers) and the current cluster state (for analytic ones).
pub struct ScoreCtx<'a> {
    /// Model being trained.
    pub profile: &'a ModelProfile,
    /// Gradient sync scheme.
    pub scheme: SyncScheme,
    /// Framework constants.
    pub framework: Framework,
    /// Pipeline schedule.
    pub schedule: ScheduleKind,
    /// Fitted runtime overheads; `None` scores raw.
    pub calibration: Option<Calibration>,
    /// Recent dynamic observations, oldest first (the meta-network's LSTM
    /// input; ignored by the analytic scorer).
    pub history: &'a VecDeque<Vec<f64>>,
    /// Current cluster state.
    pub state: &'a ClusterState,
}

/// Profiles the cluster and maintains the dynamic observation history
/// (Table 1 metrics, §4.1).
pub trait Observe {
    /// Take one profiling measurement over `workers` and fold the encoded
    /// dynamic features into the history.
    fn observe(
        &mut self,
        workers: &[GpuId],
        state: &ClusterState,
        partition: &Partition,
    ) -> ProfilingMetrics;

    /// Recent dynamic observations, oldest first.
    fn history(&self) -> &VecDeque<Vec<f64>>;
}

/// Confirms resource changes from consecutive observations (§4.1's
/// resource changing detector).
pub trait Detect {
    /// Feed one observation; returns the changes confirmed at this point.
    fn detect(&mut self, metrics: &ProfilingMetrics, computes: &[f64]) -> Vec<ResourceChange>;

    /// Adapt to a new observation width (worker evictions/additions).
    fn resize(&mut self, n_workers: usize);

    /// Re-baseline after a switch (the old readings no longer apply).
    fn reset(&mut self);
}

/// Proposes candidate moves around a base configuration (§4.2's
/// two-worker neighborhood).
pub trait Enumerate {
    /// Moves that reach a candidate from `base` in one step, in a fixed
    /// order. `degraded` lists workers eligible for eviction;
    /// implementations may extend the neighborhood with drop moves that
    /// shed them.
    fn candidates(
        &self,
        base: &Partition,
        profile: &ModelProfile,
        degraded: &[GpuId],
    ) -> Vec<MoveKind>;
}

/// Predicts candidate throughput (§4.3's meta-network, or the analytic
/// model for ablation).
pub trait Score {
    /// Predicted throughput (samples/sec) of one candidate.
    fn predict(&self, ctx: &ScoreCtx<'_>, candidate: &Partition) -> f64;

    /// Score every move from `base` and return the best `(speed, move)`.
    /// Implementations may hoist candidate-independent work out of the
    /// per-move loop and need not build every candidate, but must select
    /// exactly the move a serial `max_by(total_cmp)` over
    /// [`Score::predict`] of each built candidate in input order would:
    /// the last of the highest-scoring moves, with its score to the bit.
    fn best(
        &self,
        ctx: &ScoreCtx<'_>,
        base: &Partition,
        moves: &[MoveKind],
    ) -> Option<(f64, MoveKind)>;
}

/// Decides whether a priced switch is worth taking (§4.3's RL arbiter, or
/// a fixed threshold for ablation).
pub trait Arbitrate {
    /// `true` to approve the switch.
    fn arbitrate(&self, input: &ArbiterInput) -> bool;
}

/// Plans and prices the execution of an approved switch (§4.4).
pub trait Switch {
    /// The migration plan between two partitions.
    fn plan(
        &self,
        from: &Partition,
        to: &Partition,
        profile: &ModelProfile,
        schedule: ScheduleKind,
    ) -> SwitchPlan;

    /// Predicted switch cost in seconds (the arbiter's cost input).
    fn predict_cost(
        &self,
        plan: &SwitchPlan,
        iteration_time: f64,
        current: &Partition,
        state: &ClusterState,
    ) -> f64;

    /// Pipeline pause actually charged at the switch point (the engine
    /// re-simulates the refill itself, so only non-refill components are
    /// charged).
    fn pause_seconds(
        &self,
        plan: &SwitchPlan,
        iteration_time: f64,
        current: &Partition,
        state: &ClusterState,
    ) -> f64;
}

/// A switch awaiting verification against its realized reward.
#[derive(Debug, Clone)]
pub struct PendingSwitch {
    /// The partition that was replaced (the revert target).
    pub prev: Partition,
    /// Measured speed just before the switch.
    pub prev_speed: f64,
    /// Predicted speed of the previous partition at switch time.
    pub prev_pred_then: f64,
    /// Decision points until the verdict — the pipeline needs a couple of
    /// windows to re-reach steady state.
    pub wait: u8,
}

/// Outcome of one verification check.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// No switch pending.
    Idle,
    /// A switch is pending but not yet due (or no measurement arrived).
    Waiting,
    /// The last switch's measured reward met expectations.
    Verified {
        /// The measured speed that passed.
        measured: f64,
        /// The minimum speed that would have passed.
        expected_floor: f64,
    },
    /// The last switch under-delivered; roll back to `prev`.
    Revert {
        /// The partition to reinstate.
        prev: Partition,
        /// The measured speed that failed.
        measured: f64,
        /// The minimum speed that would have passed.
        expected_floor: f64,
    },
}

/// Judges applied switches by their measured reward (§4.3 "the reward
/// function is the training speed of one iteration") and tracks trust in
/// the scorer.
pub trait Verify {
    /// Arm verification for a just-applied switch.
    fn arm(&mut self, pending: PendingSwitch);

    /// Check the pending switch (if due) against the measured speed.
    /// `predict_current` lazily prices the *current* partition under the
    /// current state so a cluster-wide slowdown does not trigger a bogus
    /// revert; it is only invoked when a verdict is actually due.
    fn check<F: FnOnce() -> f64>(&mut self, measured: Option<f64>, predict_current: F) -> Verdict;

    /// Confidence in the scorer's predicted gains, in `(0, 1]`.
    fn trust(&self) -> f64;

    /// Tick the post-revert cooldown; `true` while sitting out.
    fn tick_cooldown(&mut self) -> bool;

    /// Drop any pending verification. Emergency repairs call this: the
    /// pending revert target may name a worker that just died, and
    /// reinstating it would re-break the job.
    fn disarm(&mut self) {}
}

/// The controller's verdict for one decision point.
#[derive(Debug, Clone)]
pub enum Decision {
    /// Keep the current partition.
    Keep,
    /// Apply `partition`, paying `pause_seconds` of pipeline disturbance.
    Switch {
        /// The new partition.
        partition: Partition,
        /// Pipeline pause charged at the switch point (the refill after a
        /// stop-restart switch is simulated by the engine itself and not
        /// included here).
        pause_seconds: f64,
    },
}
