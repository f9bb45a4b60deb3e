//! ap-exec — a real pipeline-parallel execution runtime.
//!
//! Everything else in this workspace *models* pipeline training; this
//! crate *does* it. A partitioned [`ap_nn::Mlp`] runs as genuine pipeline
//! stages on OS threads connected by bounded byte-buffer channels:
//! activations and gradients are serialized to wire bytes (transfer sizes
//! are measured, not modeled), stages follow a PipeDream-style 1F1B
//! schedule with per-mini-batch weight stashing, and a per-stage profiler
//! feeds the same Table-1 metrics type (`autopipe::ProfilingMetrics`) the
//! planner consumes from the simulator.
//!
//! The headline feature is live fine-grained state switching (§4.4 of the
//! AutoPipe paper): a boundary layer block migrates between two adjacent
//! stages *while the pipeline keeps admitting mini-batches*. Weight copies
//! move in stash-version order — the master (latest) copy first so new
//! mini-batches forward immediately at the new owner, then stashed
//! versions newest-first — and in-flight mini-batches drain through their
//! original owner, with parameter updates forwarded as ordered deltas so
//! the master at the new owner sees every update exactly once, in
//! mini-batch order. A drain-free invariant (≥ 1 mini-batch in flight at
//! every migration tick) is sampled at runtime.
//!
//! Design constraints that keep the runtime byte-deterministic across
//! thread interleavings (the repo's determinism convention):
//! - one worker per stage, so each stage's update order is its own
//!   program order;
//! - static op-programs from `ap_ir::generate` (each stage blocks on the
//!   exact frame its next op needs, instead of racing on arrival order);
//! - stateless SGD (no optimizer state to migrate or reorder).

pub mod calib;
pub mod channel;
pub mod codec;
pub mod profiler;
pub mod runtime;

pub use ap_ir::ScheduleKind;
pub use calib::fit_calibration;
pub use channel::{ByteChannel, ChannelStats};
pub use codec::{
    decode, decode_view, encode, encode_into, Frame, FrameView, LayerBlob, MatrixView,
};
pub use profiler::{calibrate_layer_times, metrics_from_times, LayerTimes};
pub use runtime::{
    run_pipeline, training_batch, ExecError, ExecResult, ExecSpec, MigrationReport, SwitchSpec,
};
