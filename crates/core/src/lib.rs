//! # autopipe — self-adaptive configuration of pipeline parallelism
//!
//! The reproduction of the paper's contribution (AutoPipe, ICPP'24): a
//! control layer that keeps a pipeline-parallel training job's work
//! partition matched to the *current* state of a shared GPU cluster.
//!
//! ## Architecture (paper §4)
//!
//! The control loop is an explicit pipeline of stages, one plain type
//! per stage called directly by [`controller::AutoPipeController`] and
//! journaled at every step:
//!
//! ```text
//!  ┌───────────────────── AutoPipeController (decision pipeline) ─────────────────────┐
//!  │                                                                                  │
//!  │ Verify ─▶ Observe ─▶ Detect ─▶ Enumerate ─▶ Score ─▶ Arbitrate ─▶ Switch         │
//!  │ revert/   Profiler,  Resource  two-worker   MetaNet   RL /        plan, price,   │
//!  │ trust     Table-1    Change-   moves        (LSTM+FC) threshold   fine-grained   │
//!  │           history    Detector  (O(L²))      /analytic             pause          │
//!  │    │          │          │          │           │         │          │           │
//!  │    └──────────┴──────────┴──── DecisionJournal (typed events) ───────┘           │
//!  └──────────────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! * [`metrics`] — the profiling metrics of Table 1 and their encoding into
//!   fixed-width feature vectors;
//! * [`profiler`] — non-intrusive measurement: bandwidth from the last
//!   iteration's transfers, per-layer times reconstructed from constant
//!   ratios (§4.2 "Profiling the training");
//! * [`meta_net`] — the LSTM + fully-connected speed predictor (Figure 7),
//!   trained offline across environments and adapted online by fine-tuning
//!   the head (§4.3 "Offline training and online adapting");
//! * [`switch_cost`] — predicted cost of a partition switch;
//! * [`arbiter`] — the RL model (two hidden layers, 32 and 16 neurons)
//!   deciding whether the predicted gain justifies the switch;
//! * [`controller`] — the staged decision pipeline, one submodule per
//!   stage, the [`controller::DecisionJournal`] audit trail, and
//!   a dynamic-scenario runner that produces the paper's
//!   speed-vs-iteration curves (with an optional merged chrome trace);
//! * [`enhanced`] — AutoPipe-enhanced DAPPLE / Chimera / PipeDream-2BW
//!   (Figure 13), re-planned by the controller's own
//!   [`controller::hill_climb`];
//! * [`HillClimbPlanner`] — the controller's per-job proposal that
//!   [`ap_sched::tenancy`] drives for several jobs sharing the cluster.

pub mod arbiter;
pub mod controller;
pub mod enhanced;
pub mod json;
pub mod meta_net;
pub mod metrics;
pub mod profiler;
pub mod switch_cost;

pub use arbiter::{Arbiter, ArbiterInput, ArbiterMode};
pub use controller::{
    AutoPipeConfig, AutoPipeController, Decision, DecisionEvent, DecisionJournal, DecisionRecord,
    HillClimbPlanner, KeepReason, ScenarioResult, Scorer, SwitchMode,
};
pub use enhanced::enhanced_throughput;
pub use meta_net::{MetaNet, MetaNetConfig, TrainingSample};
pub use metrics::{FeatureEncoder, ProfilingMetrics, DYNAMIC_DIM, STATIC_DIM};
pub use profiler::{profile_from_metrics, Profiler};
pub use switch_cost::SwitchCostModel;
