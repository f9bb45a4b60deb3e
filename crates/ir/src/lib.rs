//! # ap-ir — the schedule intermediate representation
//!
//! One declarative encoding of "what a pipeline schedule is" (DESIGN.md
//! §10):
//!
//! * `ap-exec` *replays* a [`Program`] on real OS-thread stages,
//!   byte-deterministically;
//! * `ap-mem` *walks* the same program for each stage's modeled peak
//!   resident bytes.
//!
//! A [`Program`] holds one [`StageProgram`] per pipeline stage: a typed
//! sequence of [`IrOp`]s (`Recv / Send / StashPush / Forward /
//! FusedFwdLossBwd / Recompute / Backward / StashPop / ApplyUpdate`) over
//! explicit mini-batch/micro-batch [`UnitId`]s with weight-version tags.
//! [`generate`] builds the program for any [`ScheduleKind`];
//! [`generate_spliced`] rewrites it for a §4.4 live migration
//! (migration-as-splice). [`Program::validate`] checks well-formedness:
//! matched sends/recvs, balanced stashes within the schedule's
//! weight-version budget, and completion of every unit.

pub mod program;
pub mod schedule;

pub use program::{
    generate, generate_spliced, IrOp, Payload, Program, SpliceSpec, StageProgram, UnitId,
};
pub use schedule::{ScheduleKind, DEFAULT_MICRO_BATCHES};
