//! # ap-cluster — shared GPU cluster substrate
//!
//! This crate models the hardware environment AutoPipe runs in: a small
//! cluster of multi-GPU servers behind a single switch, shared by multiple
//! jobs. It provides
//!
//! * device models ([`gpu`]) — GPU kinds with peak throughput and
//!   time-sliced contention between colocated jobs,
//! * a topology model ([`topology`]) — servers, NICs, a single switch, and
//!   link capacities (the paper's testbed is 5 servers x 2 P100 behind one
//!   Mellanox SN2100),
//! * max-min fair bandwidth sharing between concurrent flows
//!   ([`bandwidth`]),
//! * resource dynamics ([`dynamics`]) — timelines of bandwidth changes and
//!   background-job arrivals/departures, both scripted and stochastic,
//! * seeded fault injection ([`faults`]) — fail-stop worker outages
//!   (MTBF/MTTR) and NIC flap bursts that compile into the same
//!   timelines, and
//! * a resource-change detector ([`detector`]) matching AutoPipe's monitor
//!   component (§4.1 of the paper: "a resource changing detector, which is
//!   used to monitor the available bandwidth and GPUs").
//!
//! Everything is deterministic given a seed; time is in seconds and
//! bandwidth in bytes/second (use [`units::gbps`] to convert).

pub mod bandwidth;
pub mod detector;
pub mod dynamics;
pub mod faults;
pub mod gpu;
pub mod topology;
pub mod units;

pub use bandwidth::{max_min_fair_rates, FairShare, Flow};
pub use detector::{ChangeKind, DetectorConfig, ResourceChange, ResourceChangeDetector};
pub use dynamics::{
    BackgroundJobGenerator, ClusterState, DiurnalGenerator, EventKind, ResourceEvent,
    ResourceTimeline,
};
pub use faults::{FaultEvent, FaultPlan, FaultPlanConfig};
pub use gpu::{Gpu, GpuId, GpuKind};
pub use topology::{ClusterTopology, LinkId, Server, ServerId};
pub use units::{gbps, to_gbps};
