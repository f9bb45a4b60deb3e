//! # ap-mem — IR-driven device-memory accounting
//!
//! The planner places pipeline stages in a *shared* cluster, so a plan is
//! only real if it fits the devices it lands on. PipeDream caps the number
//! of in-flight mini-batches because weight stashing "keeps numerous weight
//! copies, one for each active mini-batch" (§4.4); PipeDream-2BW shows
//! double-buffered updates flatten that to 2 versions; GPipe's activation
//! recompute trades compute for discarded activations. All of those are
//! *schedule* properties — and every schedule in this workspace is already
//! a declarative [`ap_ir`] op-program. So instead of hand-writing one
//! closed-form memory formula per schedule, this crate **walks the
//! program**: it replays each stage's static op sequence, tracking the live
//! weight-version set (`StashPush`/`StashPop`), the live activation units
//! (`Forward`→`Backward`, with `Recompute` marking units that discarded
//! their activations), and prices the high-water mark. One model, priced
//! everywhere: the planner, the scheduler's admission path, the serve
//! daemon, and the exec-runtime comparison all read the same numbers.
//!
//! * [`footprint`] — the planning model: per-stage high-water footprint of
//!   a (model, partition, schedule, in_flight) tuple as params + grads +
//!   optimizer state + stashed weight versions + in-flight activations.
//! * [`plan`] — capacity checks against a (fault-timeline aware)
//!   [`ap_cluster::ClusterState`], in-flight clamping, and memory-aware
//!   schedule *switching*: recompute on starved clusters, deeper
//!   in-flight / 2BW on rich ones.
//! * [`mlp`] — a byte-exact mirror of the ap-exec MLP runtime's resident
//!   state, used to close the measured-vs-modeled memory loop in
//!   `repro exec-validate`.

pub mod footprint;
pub mod mlp;
pub mod plan;

pub use footprint::{footprint, walk_stage, MemoryModel, OptimizerKind, StageFootprint};
pub use mlp::modeled_peak_stage_bytes;
pub use plan::{check, clamp_in_flight, fit_schedule, FitOutcome, MemCheck, StageMemCheck};
