//! # ap-pipesim — pipeline-parallel training simulator
//!
//! The execution substrate the paper runs on real GPUs, rebuilt as a
//! simulator (see DESIGN.md §2 for the substitution argument). It models
//! pipelined DNN training over a shared cluster ([`ap_cluster`]) for a model
//! profile ([`ap_models::ModelProfile`]):
//!
//! * [`partition`] — stages (contiguous layer ranges with data-parallel
//!   worker sets) and the number of in-flight mini-batches, PipeDream's
//!   "work partition";
//! * [`ScheduleKind`] — the pipeline flavours the paper touches
//!   (PipeDream's asynchronous 1F1B, GPipe, DAPPLE, Chimera,
//!   PipeDream-2BW), re-exported from [`ap_ir`] so the IR generators,
//!   this simulator and the ap-exec runtime share one vocabulary;
//! * [`sync`] — data-parallel gradient synchronization (Parameter Server
//!   and Ring All-reduce, the two schemes of Figure 8);
//! * [`framework`] — per-framework constant factors (TensorFlow / MXNet /
//!   PyTorch panels of Figure 8);
//! * [`analytic`] — a fast closed-form steady-state throughput model used
//!   inside planners;
//! * [`engine`] — the one event-driven pricer: a discrete-event
//!   simulation with fluid fair-share networking, every schedule kind's
//!   dispatch (async 1F1B and the flush schedules), weight
//!   versions/staleness, per-iteration speed traces and worker timelines
//!   (Figure 2);
//! * [`switching`] — what a re-partition costs: stop-and-restart vs
//!   AutoPipe's layer-by-layer fine-grained switching (§4.4);
//! * [`convergence`] — a staleness-aware statistical model of top-1
//!   accuracy curves (BSP / TAP / weight-stashing semantics, Figure 11).

pub mod analytic;
pub mod calibration;
pub mod convergence;
pub mod engine;
pub mod framework;
pub mod json;
pub mod partition;
pub mod switching;
pub mod sync;
pub mod trace;

pub use analytic::{AnalyticModel, EditStage, EditWorkers, SpanEdit, StageTable};
pub use ap_ir::ScheduleKind;
pub use calibration::Calibration;
pub use convergence::{accuracy_curve, ConvergenceModel, Paradigm};
pub use engine::{
    Engine, EngineConfig, EngineWork, FaultRecord, IterationRecord, SimError, SimResult,
    TimelineSegment, WorkKind,
};
pub use framework::Framework;
pub use partition::{Partition, PartitionError, Replicas, Stage};
pub use switching::{
    abort_recovery_cost, abort_rollback_cost, fine_grained_cost, stop_restart_cost, MigrationStep,
    SwitchPlan,
};
pub use sync::SyncScheme;
pub use trace::{
    segments_to_chrome_trace, to_chrome_trace, to_chrome_trace_with_events, TraceEvent,
};
