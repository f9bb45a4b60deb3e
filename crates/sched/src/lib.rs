//! ap-sched: the cluster control plane.
//!
//! Where ap-core plans *one* pipeline job well, ap-sched co-plans a
//! *stream* of them — hundreds to thousands of arrivals, completions and
//! failures on one shared fabric. The design keeps per-event planning in
//! the milliseconds:
//!
//! * a deterministic **event loop** ([`ClusterScheduler::on_event`]) over
//!   an injectable clock, so tests and benches replay byte-identically;
//! * a typed **admission policy** ([`admission`]) — place, queue with a
//!   reason, or reject with a reason;
//! * an incremental **contention index** ([`ContentionIndex`]) mapping
//!   every GPU and server link back to the jobs that touch it, so the
//!   *neighborhood* of an event (the jobs actually sharing resources with
//!   it) is extracted in O(degree) instead of O(cluster);
//! * **neighborhood re-planning** with convergence guards: ripple rounds
//!   are bounded and every accepted move must beat a priced switch gate,
//!   the same discipline the single-job arbiter uses;
//! * a **cluster objective** ([`ClusterObjective`]) — aggregate analytic
//!   throughput blended with a fairness floor — evaluated from the
//!   analytic model only, never the event engine.
//!
//! The crate also owns the multi-tenancy primitives ([`tenancy`]);
//! ap-core plugs its hill-climb refiner (`autopipe::HillClimbPlanner`) in
//! through the [`ProposePlan`] trait.

pub mod admission;
pub mod index;
pub mod json;
pub mod objective;
pub mod scheduler;
pub mod tenancy;
pub mod trace;

pub use admission::{
    link_headroom_ok, select_footprint, validate_size, AdmissionConfig, QueueReason, RejectReason,
};
pub use index::ContentionIndex;
pub use json::{JobSnapshot, QueuedSnapshot, ScheduleSnapshot};
pub use objective::{ClusterObjective, EQUIVALENCE_EPSILON, FAIRNESS_WEIGHT};
pub use scheduler::{
    AdmitOutcome, ClusterScheduler, EventOutcome, JobId, JobRequest, ReplanStats, ResidentJob,
    SchedConfig, SchedCounters, SchedEvent,
};
pub use tenancy::{
    best_response_rounds, comm_bytes_per_sec, evaluate, induced_state, JobSpec, MultiJobEnv,
    MultiJobOutcome, ProposePlan,
};
pub use trace::{generate, run, EventRecord, TimedEvent, TraceConfig, TraceEventKind};
