//! Discrete-event simulation of pipelined training.
//!
//! A fluid-flow event engine: compute tasks drain FLOPs at the worker's
//! current effective rate, transfers drain bytes at max-min fair-share
//! rates over the live link capacities. Rates are re-evaluated at every
//! completion and at every resource-timeline event, so mid-transfer
//! bandwidth drops and mid-iteration GPU contention behave like they do on
//! a real cluster.
//!
//! The engine executes:
//!
//! * **asynchronous 1F1B** (PipeDream / PipeDream-2BW): mini-batches are
//!   injected while fewer than `in_flight` are active; each worker prefers
//!   the oldest ready backward task, then the oldest forward (the 1F1B
//!   rule); weight versions bump per backward pass and staleness is
//!   tracked;
//! * **synchronous flush schedules** (GPipe / DAPPLE / Chimera): each
//!   mini-batch becomes `m` micro-batch units, a flush barrier runs the
//!   data-parallel gradient sync, then the next mini-batch starts.
//!
//! Per-worker busy segments are recorded for utilization plots (Figure 2),
//! and per-iteration completion times for the speed-vs-iteration curves
//! (Figures 9 and 10).

use std::collections::{BTreeSet, HashMap};

use ap_cluster::{
    max_min_fair_rates, ClusterState, EventKind, FairShare, Flow, GpuId, LinkId, ResourceTimeline,
    ServerId,
};
use ap_ir::ScheduleKind;
use ap_models::ModelProfile;

use crate::calibration::Calibration;
use crate::framework::Framework;
use crate::partition::{Partition, PartitionError};
use crate::sync::SyncScheme;

/// Why a simulation run could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The run was configured with a structurally invalid partition.
    InvalidPartition(PartitionError),
    /// Nothing is runnable and no future resource event can unblock the
    /// pipeline: the configuration cannot make progress.
    Deadlock {
        /// Simulated time at which progress stopped.
        at: f64,
        /// Mini-batches completed before the deadlock.
        done: u64,
        /// Mini-batches that were requested.
        target: u64,
    },
    /// The event loop exceeded its step budget — the run is degenerate
    /// (e.g. a pathological rate collapse producing infinitesimal steps).
    StepBudgetExhausted {
        /// Steps taken before giving up.
        steps: usize,
    },
    /// A pipeline stage lost every worker to fail-stop failures and no
    /// repartition restored it: the job cannot continue on the current
    /// assignment. Controlled runs get a chance to repartition before this
    /// fires; uncontrolled runs surface it directly.
    WorkerLost {
        /// The stage with zero surviving workers (current partition).
        stage: usize,
        /// Simulated time at which the loss became terminal.
        at: f64,
        /// Mini-batches completed before the loss.
        done: u64,
        /// Mini-batches that were requested.
        target: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidPartition(e) => write!(f, "invalid partition: {e}"),
            SimError::Deadlock { at, done, target } => {
                write!(
                    f,
                    "deadlock at t={at} with {done} / {target} iterations done"
                )
            }
            SimError::StepBudgetExhausted { steps } => {
                write!(f, "engine step budget exhausted after {steps} steps")
            }
            SimError::WorkerLost {
                stage,
                at,
                done,
                target,
            } => {
                write!(
                    f,
                    "stage {stage} lost all workers at t={at} with {done} / {target} iterations done"
                )
            }
        }
    }
}

impl From<PartitionError> for SimError {
    fn from(e: PartitionError) -> Self {
        SimError::InvalidPartition(e)
    }
}

impl std::error::Error for SimError {}

/// Forward or backward work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkKind {
    /// Forward pass.
    Forward,
    /// Backward pass (includes gradient sync time on replicated stages).
    Backward,
}

/// One busy interval of one worker, for timeline/utilization plots.
#[derive(Debug, Clone)]
pub struct TimelineSegment {
    /// Global worker index (position in `Partition::all_workers`).
    pub worker: usize,
    /// Work unit (mini-batch id for async, micro-batch id for sync).
    pub unit: u64,
    /// Forward or backward.
    pub kind: WorkKind,
    /// Segment start, seconds.
    pub start: f64,
    /// Segment end, seconds.
    pub end: f64,
}

/// A fault-path incident the engine handled during a run. These are the
/// engine-side half of the recovery story: the controller folds them into
/// its decision journal (and the chrome trace) so every fault, rollback
/// and restart is auditable.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultRecord {
    /// A worker of this job died fail-stop.
    WorkerFailed {
        /// The dead worker.
        worker: GpuId,
        /// When it died, seconds.
        at: f64,
    },
    /// A previously failed worker came back (cold — it rejoins the
    /// pipeline only when a later repartition assigns it work).
    WorkerRecovered {
        /// The recovered worker.
        worker: GpuId,
        /// When it recovered, seconds.
        at: f64,
    },
    /// A worker involved in an in-progress fine-grained migration died;
    /// the partial migration was rolled back to the pre-switch partition
    /// (completed steps revert in reverse stash-version order — the later
    /// active mini-batch's copy first, the dual of the §4.4 forward
    /// order).
    MigrationRolledBack {
        /// The worker whose death aborted the migration.
        worker: GpuId,
        /// When the rollback happened, seconds.
        at: f64,
        /// Fraction of the migration window that had elapsed in `[0, 1)`.
        progress: f64,
        /// Stall charged to undo the partially copied state.
        rollback_seconds: f64,
    },
    /// In-flight mini-batches stranded by a failure (their pipeline stage
    /// had no surviving replica) were restarted from stage 0 under the
    /// current partition — work is re-done, never silently dropped.
    UnitsRestarted {
        /// How many mini-batches restarted.
        count: usize,
        /// When, seconds.
        at: f64,
    },
    /// The controller proposed a switch the engine could not apply (e.g. a
    /// partition naming a worker outside the job); the switch was ignored
    /// rather than panicking mid-run.
    SwitchRejected {
        /// When, seconds.
        at: f64,
    },
}

/// Completion record of one mini-batch.
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// Mini-batch index (0-based).
    pub iteration: u64,
    /// Wall-clock completion time, seconds.
    pub finish: f64,
}

/// Aggregated simulation output.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Mini-batch completions in order.
    pub iterations: Vec<IterationRecord>,
    /// Samples per mini-batch (the configured batch size).
    pub batch: usize,
    /// Per-worker busy seconds.
    pub busy: Vec<f64>,
    /// Total simulated seconds.
    pub makespan: f64,
    /// Worker busy segments (empty unless timeline recording was on).
    pub segments: Vec<TimelineSegment>,
    /// Mean weight staleness observed at stage 0 (async schedules only).
    pub mean_staleness: f64,
    /// Fault-path incidents handled during the run, in time order.
    pub faults: Vec<FaultRecord>,
}

impl SimResult {
    /// Overall throughput in samples/sec across the whole run.
    pub fn throughput(&self) -> f64 {
        if self.iterations.is_empty() || self.makespan == 0.0 {
            return 0.0;
        }
        self.iterations.len() as f64 * self.batch as f64 / self.makespan
    }

    /// Steady-state throughput, skipping the first `skip` iterations
    /// (pipeline fill).
    ///
    /// Replicated stages complete mini-batches in near-simultaneous
    /// *waves*; naively dividing record count by elapsed time over-counts
    /// partial waves at the window edges. Records are therefore grouped by
    /// distinct completion instants, and the rate counts whole groups
    /// after the first.
    pub fn steady_throughput(&self, skip: usize) -> f64 {
        if self.iterations.len() <= skip + 1 {
            return self.throughput();
        }
        let window = &self.iterations[skip..];
        let mut groups: Vec<(f64, usize)> = Vec::new();
        for rec in window {
            match groups.last_mut() {
                Some((t, c)) if (rec.finish - *t).abs() < 1e-9 => *c += 1,
                _ => groups.push((rec.finish, 1)),
            }
        }
        let (Some(first), Some(last)) = (groups.first(), groups.last()) else {
            return self.throughput();
        };
        if groups.len() < 2 {
            return self.throughput();
        }
        let span = last.0 - first.0;
        let counted: usize = groups[1..].iter().map(|&(_, c)| c).sum();
        counted as f64 * self.batch as f64 / span.max(1e-12)
    }

    /// Per-iteration instantaneous speed: `(iteration, samples/sec)`
    /// smoothed over a window of completions.
    pub fn speed_series(&self, window: usize) -> Vec<(u64, f64)> {
        let w = window.max(1);
        let mut out = Vec::new();
        for i in w..self.iterations.len() {
            let dt = self.iterations[i].finish - self.iterations[i - w].finish;
            if dt > 0.0 {
                out.push((
                    self.iterations[i].iteration,
                    w as f64 * self.batch as f64 / dt,
                ));
            }
        }
        out
    }

    /// Mean utilization of each worker over the makespan.
    pub fn utilization(&self) -> Vec<f64> {
        self.busy
            .iter()
            .map(|&b| {
                if self.makespan > 0.0 {
                    b / self.makespan
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Gradient sync scheme for replicated stages.
    pub scheme: SyncScheme,
    /// Framework constant factors.
    pub framework: Framework,
    /// Pipeline schedule.
    pub schedule: ScheduleKind,
    /// Record per-worker busy segments (costs memory).
    pub record_timeline: bool,
    /// Fitted runtime overheads (codec, stash, dispatch) charged as
    /// extra task time; `None` simulates the raw compute/wire model.
    pub calibration: Option<Calibration>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            scheme: SyncScheme::RingAllReduce,
            framework: Framework::pytorch(),
            schedule: ScheduleKind::PipeDreamAsync,
            record_timeline: false,
            calibration: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Task {
    unit: u64,
    stage: usize,
    kind: WorkKind,
}

#[derive(Debug)]
enum Unlock {
    /// A pipeline task becomes ready.
    Task(Task),
    /// Worker `usize` finished pushing its gradient update; its next
    /// backward pass may start.
    SyncDone(usize),
}

#[derive(Debug)]
enum Activity {
    Compute {
        worker: usize,
        task: Task,
        remaining_flops: f64,
        started: f64,
    },
    Transfer {
        flow: Flow,
        remaining_bytes: f64,
        /// Max-min fair rate, bytes/s, from the last solve. Solved again
        /// only when the set of transfers or the link capacities change.
        rate: f64,
        /// What completion unblocks.
        unlocks: Unlock,
    },
    /// Synchronous-schedule flush barrier (gradient sync), fixed duration.
    Flush { remaining_seconds: f64 },
    /// A pure time delay (e.g. a fine-grained migration stall); completion
    /// has no effect beyond advancing the clock so frozen workers re-check.
    Timer { remaining_seconds: f64 },
}

/// One worker's ready tasks as `(0 = backward / 1 = forward, unit,
/// stage)`: a sorted, deduplicated `Vec`, so it iterates in the order of
/// an ordered set, and inserts reuse its buffer instead of allocating.
#[derive(Debug, Default)]
struct ReadyQueue(Vec<(u8, u64, usize)>);

impl ReadyQueue {
    fn insert(&mut self, key: (u8, u64, usize)) {
        if let Err(at) = self.0.binary_search(&key) {
            self.0.insert(at, key);
        }
    }

    fn remove(&mut self, key: (u8, u64, usize)) {
        if let Ok(at) = self.0.binary_search(&key) {
            self.0.remove(at);
        }
    }
}

/// Index of `link` in the engine's capacity table.
fn link_slot(link: LinkId) -> usize {
    match link {
        LinkId::Up(s) => 2 * s.0,
        LinkId::Down(s) => 2 * s.0 + 1,
    }
}

/// One partition regime during a run. Units carry the epoch that was
/// current when they were injected, so in-flight mini-batches drain on the
/// old assignment while new ones use the new — AutoPipe's fine-grained
/// switching semantics (§4.4).
struct Epoch {
    /// First unit id owned by this epoch.
    start_unit: u64,
    partition: Partition,
    stage_workers: Vec<Vec<usize>>, // stage -> global worker indices
    stage_fwd_flops: Vec<f64>,      // per unit
    stage_bwd_flops: Vec<f64>,      // per unit, incl. recompute
}

impl Epoch {
    fn build(
        partition: Partition,
        profile: &ModelProfile,
        micro: u64,
        recompute: f64,
        worker_index: &HashMap<GpuId, usize>,
        start_unit: u64,
    ) -> Self {
        let mut stage_workers = Vec::with_capacity(partition.n_stages());
        for st in &partition.stages {
            stage_workers.push(
                st.workers
                    .iter()
                    // Invariant: `worker_index` is built from the initial
                    // partition and `switch_partition` rejects (does not
                    // apply) any proposal naming a worker outside it, so
                    // every partition that reaches here resolves fully.
                    .map(|g| *worker_index.get(g).expect("worker set must be preserved"))
                    .collect(),
            );
        }
        let mut stage_fwd = Vec::new();
        let mut stage_bwd = Vec::new();
        for st in &partition.stages {
            let f: f64 = profile.eff_flops_fwd[st.layers.clone()].iter().sum();
            let b: f64 = profile.eff_flops_bwd[st.layers.clone()].iter().sum();
            stage_fwd.push(f / micro as f64);
            stage_bwd.push((b + recompute * f) / micro as f64);
        }
        Epoch {
            start_unit,
            partition,
            stage_workers,
            stage_fwd_flops: stage_fwd,
            stage_bwd_flops: stage_bwd,
        }
    }
}

/// An in-progress migration window. While the clock is inside it, a
/// fail-stop death of an affected worker aborts the switch: the completed
/// migration steps are undone in reverse stash-version order and the
/// pre-switch partition is reinstated.
#[derive(Debug, Clone)]
struct ActiveMigration {
    /// The pre-switch partition (the rollback target).
    from: Partition,
    /// First unit injected under the new (to-be-aborted) epoch.
    start_unit: u64,
    /// Window start, seconds.
    started: f64,
    /// Window end (start + migration stall), seconds.
    ends: f64,
    /// Global worker indices whose assignment the switch changes.
    affected: Vec<usize>,
}

/// The simulator.
pub struct Engine<'a> {
    profile: &'a ModelProfile,
    cfg: EngineConfig,
    state: ClusterState,
    resources: ResourceTimeline,
    res_cursor: f64,

    // Static lookups.
    workers: Vec<GpuId>,
    worker_index: HashMap<GpuId, usize>,
    /// Stage owning each global worker index in the initial partition
    /// (exposed for diagnostics).
    pub worker_stage: Vec<usize>,
    /// Partition regimes, oldest first; the last is current.
    epochs: Vec<Epoch>,
    micro: u64,

    // Dynamic state.
    now: f64,
    ready: Vec<ReadyQueue>,
    activities: Vec<Activity>,
    worker_busy_flag: Vec<bool>,
    /// Worker's previous gradient sync still in flight (its next backward
    /// pass is gated until it lands).
    sync_busy: Vec<bool>,
    /// Workers frozen until a migration stall elapses.
    ready_after: Vec<f64>,
    injected: u64,
    completed_units: u64,
    versions: Vec<u64>,
    fwd_versions: HashMap<(u64, usize), u64>,
    staleness_sum: f64,
    staleness_n: u64,
    busy: Vec<f64>,
    segments: Vec<TimelineSegment>,
    iterations: Vec<IterationRecord>,
    // Sync-schedule bookkeeping.
    sync_iteration: u64,
    sync_pending_b: u64,
    // Fault tolerance.
    /// Per-worker fail-stop flag (index parallel to `workers`).
    dead: Vec<bool>,
    /// In-flight units whose pipeline stage lost every replica; they
    /// restart from stage 0 once a feasible partition is in place.
    stranded: BTreeSet<u64>,
    /// Units re-homed onto a later epoch (restarts); overrides the
    /// injection-time epoch lookup. Epochs are append-only, so stored
    /// indices stay valid.
    epoch_override: HashMap<u64, usize>,
    /// Fault incidents, in time order.
    fault_log: Vec<FaultRecord>,
    /// The migration window currently vulnerable to mid-switch failure.
    active_migration: Option<ActiveMigration>,
    /// A fault was applied since the controller last ran; controlled runs
    /// consult the controller immediately instead of waiting for the
    /// completion cadence.
    fault_consult: bool,
    // Hot-loop state, kept across ticks so that a tick allocates nothing
    // and does no map lookup.
    /// Per worker, `effective_flops × compute_efficiency` at the current
    /// cluster state. Rebuilt only when a resource event applies.
    compute_rates: Vec<f64>,
    /// Per directed link (see `link_slot`), `available_capacity ×
    /// comm_efficiency` at the current cluster state. Rebuilt with
    /// `compute_rates`.
    link_caps: Vec<f64>,
    /// The transfer set or the link capacities changed since the last
    /// rate solve. Progressive filling gives each flow the same rate
    /// whatever the order of the flows, so an unchanged set keeps its
    /// rates exactly, even when completions of other activities reorder
    /// it.
    rates_dirty: bool,
    /// Tables of the max-min fill, reused by every solve.
    fair_share: FairShare,
    /// Path buffers of finished transfers, reused by new ones.
    spare_paths: Vec<Vec<LinkId>>,
    /// Activities that completed in the current step.
    completed: Vec<Activity>,
}

impl<'a> Engine<'a> {
    /// Build an engine for one job.
    ///
    /// Fails with a [`PartitionError`] when `partition` is structurally
    /// invalid for `profile` (the caller controls both, so the mismatch is
    /// theirs to handle, not a process abort).
    pub fn new(
        profile: &'a ModelProfile,
        partition: Partition,
        state: ClusterState,
        resources: ResourceTimeline,
        cfg: EngineConfig,
    ) -> Result<Self, PartitionError> {
        partition.validate(profile.n_layers())?;
        let workers = partition.all_workers();
        let worker_index: HashMap<GpuId, usize> =
            workers.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        let mut worker_stage = Vec::with_capacity(workers.len());
        for (s, st) in partition.stages.iter().enumerate() {
            for _ in &st.workers {
                worker_stage.push(s);
            }
        }
        let micro = cfg.schedule.micro_batches() as u64;
        let recompute = cfg.schedule.recompute_factor();
        let n_workers = workers.len();
        let n_stages = partition.n_stages();
        let epoch0 = Epoch::build(partition, profile, micro, recompute, &worker_index, 0);
        let mut engine = Engine {
            profile,
            cfg,
            state,
            resources,
            res_cursor: 0.0,
            workers,
            worker_index,
            worker_stage,
            epochs: vec![epoch0],
            micro,
            now: 0.0,
            ready: (0..n_workers).map(|_| ReadyQueue::default()).collect(),
            activities: Vec::new(),
            worker_busy_flag: vec![false; n_workers],
            sync_busy: vec![false; n_workers],
            ready_after: vec![0.0; n_workers],
            injected: 0,
            completed_units: 0,
            versions: vec![0; n_stages],
            fwd_versions: HashMap::new(),
            staleness_sum: 0.0,
            staleness_n: 0,
            busy: vec![0.0; n_workers],
            segments: Vec::new(),
            iterations: Vec::new(),
            sync_iteration: 0,
            sync_pending_b: 0,
            dead: vec![false; n_workers],
            stranded: BTreeSet::new(),
            epoch_override: HashMap::new(),
            fault_log: Vec::new(),
            active_migration: None,
            fault_consult: false,
            compute_rates: vec![0.0; n_workers],
            link_caps: Vec::new(),
            rates_dirty: false,
            fair_share: FairShare::default(),
            spare_paths: Vec::new(),
            completed: Vec::new(),
        };
        engine.refresh_rates();
        Ok(engine)
    }

    /// Rebuild the per-worker compute rates and per-link capacities from
    /// the cluster state; every transfer rate must be solved again.
    fn refresh_rates(&mut self) {
        let compute_eff = self.cfg.framework.compute_efficiency;
        for (rate, &g) in self.compute_rates.iter_mut().zip(&self.workers) {
            *rate = self.state.effective_flops(g) * compute_eff;
        }
        let comm_eff = self.cfg.framework.comm_efficiency;
        self.link_caps.clear();
        for s in 0..self.state.topology.servers.len() {
            for link in [LinkId::Up(ServerId(s)), LinkId::Down(ServerId(s))] {
                debug_assert_eq!(link_slot(link), self.link_caps.len());
                self.link_caps
                    .push(self.state.available_capacity(link) * comm_eff);
            }
        }
        self.rates_dirty = true;
    }

    fn n_stages(&self) -> usize {
        self.current_epoch().partition.n_stages()
    }

    fn current_epoch(&self) -> &Epoch {
        self.epochs.last().expect("at least the initial epoch")
    }

    /// The partition regime a unit runs under: its injection-time epoch,
    /// unless a fault restarted it onto a later one.
    ///
    /// Invariant: `epochs[0].start_unit == 0` and epochs are append-only,
    /// so the reverse scan always finds a regime and stored override
    /// indices never dangle.
    fn epoch_for(&self, unit: u64) -> &Epoch {
        if let Some(&i) = self.epoch_override.get(&unit) {
            return &self.epochs[i];
        }
        self.epochs
            .iter()
            .rev()
            .find(|e| e.start_unit <= unit)
            .expect("epoch 0 starts at unit 0")
    }

    /// Replica (global worker index) owning `unit` in `stage`, or `None`
    /// when the stage has no surviving replica under the unit's epoch.
    fn try_owner(&self, unit: u64, stage: usize) -> Option<usize> {
        let replicas = &self.epoch_for(unit).stage_workers[stage];
        if replicas.is_empty() {
            return None;
        }
        Some(replicas[(unit % replicas.len() as u64) as usize])
    }

    /// Calibrated extra seconds a task occupies its stage thread beyond
    /// layer compute: codec ops on each boundary, the stash snapshot on
    /// forwards, and the fixed dispatch residual (split evenly between
    /// the forward and backward halves). Byte counts are per unit, so
    /// micro-batched schedules pay per-micro-batch codec costs.
    fn task_extra_seconds(&self, task: Task, epoch: &Epoch) -> f64 {
        let Some(c) = self.cfg.calibration else {
            return 0.0;
        };
        let last = epoch.partition.n_stages() - 1;
        let st = &epoch.partition.stages[task.stage];
        let micro = self.micro as f64;
        let in_bytes =
            (task.stage > 0).then(|| self.profile.cut_bytes(st.layers.start - 1) / micro);
        let out_bytes =
            (task.stage < last).then(|| self.profile.cut_bytes(st.layers.end - 1) / micro);
        match task.kind {
            WorkKind::Forward => {
                let stashes = self.cfg.schedule.is_async()
                    && epoch.partition.in_flight > 1
                    && task.stage < last;
                let stash_bytes = if stashes {
                    epoch.partition.stage_param_bytes(task.stage, self.profile)
                } else {
                    0.0
                };
                c.forward_extra_s(in_bytes, out_bytes, stash_bytes)
            }
            WorkKind::Backward => c.backward_extra_s(in_bytes, out_bytes),
        }
    }

    /// Fraction of its nominal rate each in-flight compute task gets
    /// right now. A calibration with `compute_slots > 0` says every
    /// worker in this simulation is really a thread on one host with
    /// that many cores (the setup the calibration was fitted on); when
    /// more tasks are busy than cores exist, the OS scheduler
    /// processor-shares them fairly. The model is work-conserving — a
    /// core freed by a blocked stage immediately speeds up the others —
    /// so a backlogged host sustains exactly `compute_slots`
    /// stage-seconds of occupancy per wall-second, the same capacity
    /// bound the analytic model's `host_capacity_time` folds in. Without
    /// a calibration (cluster simulations, where workers are genuinely
    /// separate devices) every task runs at full rate.
    fn compute_share(&self) -> f64 {
        let Some(c) = self.cfg.calibration else {
            return 1.0;
        };
        if c.compute_slots == 0 {
            return 1.0;
        }
        let busy = self
            .activities
            .iter()
            .filter(|a| matches!(a, Activity::Compute { .. }))
            .count();
        if busy <= c.compute_slots {
            return 1.0;
        }
        c.compute_slots as f64 / busy as f64
    }

    /// Effective FLOPs a task costs on its owner (sync time folded in for
    /// async backward passes at the owner's current rate).
    fn task_flops(&self, task: Task, worker: usize) -> f64 {
        let epoch = self.epoch_for(task.unit);
        let extra = self.task_extra_seconds(task, epoch) * self.compute_rates[worker];
        match task.kind {
            WorkKind::Forward => {
                let mut f = epoch.stage_fwd_flops[task.stage] + extra;
                // Per-iteration framework overhead charged on entry.
                if task.stage == 0 {
                    f += self.cfg.framework.per_iter_overhead / self.micro as f64
                        * self.compute_rates[worker];
                }
                f
            }
            WorkKind::Backward => {
                // Gradient sync is a real network flow launched at
                // completion (see `launch_sync`), not folded time.
                epoch.stage_bwd_flops[task.stage] + extra
            }
        }
    }

    /// Launch this worker's gradient-sync flow for its stage (async
    /// schedules, replicated stages only). PS pushes+pulls through the
    /// server replica's NIC; a ring pass touches every inter-server hop of
    /// the replica ring. Concurrent syncs contend via max-min fair share.
    fn launch_sync(&mut self, worker: usize, stage: usize, unit: u64) {
        let m = self.epoch_for(unit).partition.stages[stage].workers.len();
        if !self.cfg.schedule.is_async() || m <= 1 {
            return;
        }
        let mut links = self.spare_paths.pop().unwrap_or_default();
        let epoch = self.epoch_for(unit);
        let st = &epoch.partition.stages[stage];
        let bytes = epoch.partition.stage_param_bytes(stage, self.profile);
        let me = self.workers[worker];
        let topology = &self.state.topology;
        let volume = match self.cfg.scheme {
            SyncScheme::ParameterServer => {
                // Push + pull between this replica and the PS (replica 0).
                links.extend(topology.path(me, st.workers[0]).into_iter().flatten());
                2.0 * bytes
            }
            SyncScheme::RingAllReduce => {
                // One ring pass: every consecutive hop, deduplicated.
                for i in 0..m {
                    let hop = topology.path(st.workers[i], st.workers[(i + 1) % m]);
                    for l in hop.into_iter().flatten() {
                        if !links.contains(&l) {
                            links.push(l);
                        }
                    }
                }
                2.0 * (m as f64 - 1.0) / m as f64 * bytes
            }
        };
        self.sync_busy[worker] = true;
        self.activities.push(Activity::Transfer {
            flow: Flow::elastic(links),
            remaining_bytes: volume.max(1.0),
            rate: 0.0,
            unlocks: Unlock::SyncDone(worker),
        });
        self.rates_dirty = true;
    }

    fn mark_ready(&mut self, task: Task) {
        let Some(w) = self.try_owner(task.unit, task.stage) else {
            // The stage has no surviving replica: the unit is stranded and
            // will restart from stage 0 once a feasible partition exists.
            self.strand_unit(task.unit);
            return;
        };
        let pri = if task.kind == WorkKind::Backward {
            0
        } else {
            1
        };
        self.ready[w].insert((pri, task.unit, task.stage));
    }

    /// `true` while every stage of the current partition has a surviving
    /// replica (new work can flow end to end).
    fn current_epoch_feasible(&self) -> bool {
        self.current_epoch()
            .stage_workers
            .iter()
            .all(|r| !r.is_empty())
    }

    /// Inject new units while the schedule admits them.
    fn inject(&mut self) {
        // A stage with zero survivors blocks the pipe; injecting would
        // only strand more units. Wait for a repartition.
        if !self.current_epoch_feasible() {
            return;
        }
        if self.cfg.schedule.is_async() {
            let in_flight = self.current_epoch().partition.in_flight as u64;
            while self.injected - self.completed_units < in_flight {
                let u = self.injected;
                self.injected += 1;
                self.mark_ready(Task {
                    unit: u,
                    stage: 0,
                    kind: WorkKind::Forward,
                });
            }
        } else {
            // Sync: inject a full iteration of micro-batches when idle.
            if self.sync_pending_b == 0
                && !self
                    .activities
                    .iter()
                    .any(|a| matches!(a, Activity::Flush { .. }))
            {
                let base = self.sync_iteration * self.micro;
                for i in 0..self.micro {
                    self.mark_ready(Task {
                        unit: base + i,
                        stage: 0,
                        kind: WorkKind::Forward,
                    });
                }
                self.sync_pending_b = self.micro * self.n_stages() as u64;
                self.injected += self.micro;
            }
        }
    }

    /// Give idle workers their best ready task (1F1B: backward first).
    fn dispatch(&mut self) {
        // 1F1B order (backward first); GPipe instead drains every forward
        // before any backward ("the micro-batches of the same mini-batch
        // pass all GPUs sequentially", §2.1). A backward pass is
        // additionally gated on the worker's previous gradient sync
        // landing.
        let gpipe = matches!(self.cfg.schedule, ScheduleKind::GPipe { .. });
        for w in 0..self.workers.len() {
            if self.dead[w] || self.worker_busy_flag[w] || self.now < self.ready_after[w] - 1e-9 {
                continue;
            }
            let pick = if gpipe {
                self.ready[w]
                    .0
                    .iter()
                    .max_by_key(|&&(pri, unit, _)| (pri, std::cmp::Reverse(unit)))
                    .copied()
            } else {
                self.ready[w]
                    .0
                    .iter()
                    .find(|&&(pri, _, _)| pri == 1 || !self.sync_busy[w])
                    .copied()
            };
            let Some((pri, unit, stage)) = pick else {
                continue;
            };
            self.ready[w].remove((pri, unit, stage));
            let kind = if pri == 0 {
                WorkKind::Backward
            } else {
                WorkKind::Forward
            };
            let task = Task { unit, stage, kind };
            if kind == WorkKind::Forward && self.cfg.schedule.is_async() {
                self.fwd_versions
                    .insert((unit, stage), self.versions[stage]);
            }
            let flops = self.task_flops(task, w);
            self.worker_busy_flag[w] = true;
            self.activities.push(Activity::Compute {
                worker: w,
                task,
                remaining_flops: flops,
                started: self.now,
            });
        }
    }

    /// Solve every transfer's max-min fair rate over the cached link
    /// capacities and store it on the transfer.
    fn solve_transfer_rates(&mut self) {
        self.rates_dirty = false;
        let caps = &self.link_caps;
        let capacity = |l: LinkId| caps[link_slot(l)];
        let flows = self.activities.iter().filter_map(|a| match a {
            Activity::Transfer { flow, .. } => Some(flow),
            _ => None,
        });
        let mut solved = max_min_fair_rates(
            flows,
            capacity,
            self.state.topology.local_bytes_per_sec,
            &mut self.fair_share,
        )
        .iter()
        .copied();
        for a in &mut self.activities {
            if let Activity::Transfer { rate, .. } = a {
                *rate = solved.next().expect("one solved rate per transfer");
            }
        }
    }

    /// Launch the transfer that feeds `unlocks` from `from_worker`.
    fn launch_transfer(&mut self, from_worker: usize, unlocks: Task, bytes: f64) {
        let Some(to_worker) = self.try_owner(unlocks.unit, unlocks.stage) else {
            self.strand_unit(unlocks.unit);
            return;
        };
        let mut links = self.spare_paths.pop().unwrap_or_default();
        let path = self
            .state
            .topology
            .path(self.workers[from_worker], self.workers[to_worker]);
        links.extend(path.into_iter().flatten());
        self.activities.push(Activity::Transfer {
            flow: Flow::elastic(links),
            remaining_bytes: bytes,
            rate: 0.0,
            unlocks: Unlock::Task(unlocks),
        });
        self.rates_dirty = true;
    }

    /// Keep a finished transfer's path buffer for a later transfer; the
    /// set of transfers changed, so their rates must be solved again.
    fn retire_transfer(&mut self, mut flow: Flow) {
        flow.links.clear();
        self.spare_paths.push(flow.links);
        self.rates_dirty = true;
    }

    fn on_compute_done(&mut self, worker: usize, task: Task, started: f64) {
        self.worker_busy_flag[worker] = false;
        self.busy[worker] += self.now - started;
        if self.cfg.record_timeline {
            self.segments.push(TimelineSegment {
                worker,
                unit: task.unit,
                kind: task.kind,
                start: started,
                end: self.now,
            });
        }
        let last_stage = self.epoch_for(task.unit).partition.n_stages() - 1;
        match task.kind {
            WorkKind::Forward => {
                if task.stage == last_stage {
                    // Turn around immediately: backward on the same worker.
                    self.mark_ready(Task {
                        unit: task.unit,
                        stage: task.stage,
                        kind: WorkKind::Backward,
                    });
                } else {
                    let cut_layer = self.epoch_for(task.unit).partition.stages[task.stage]
                        .layers
                        .end
                        - 1;
                    let bytes = self.profile.cut_bytes(cut_layer) / self.micro as f64;
                    self.launch_transfer(
                        worker,
                        Task {
                            unit: task.unit,
                            stage: task.stage + 1,
                            kind: WorkKind::Forward,
                        },
                        bytes,
                    );
                }
            }
            WorkKind::Backward => {
                if self.cfg.schedule.is_async() {
                    // Per-mini-batch weight update with stashing semantics.
                    let fwd_v = self
                        .fwd_versions
                        .remove(&(task.unit, task.stage))
                        .unwrap_or(self.versions[task.stage]);
                    let staleness = (self.versions[task.stage] - fwd_v) as f64;
                    if task.stage == 0 {
                        self.staleness_sum += staleness;
                        self.staleness_n += 1;
                    }
                    self.versions[task.stage] += 1;
                    self.launch_sync(worker, task.stage, task.unit);
                } else {
                    self.sync_pending_b -= 1;
                }
                if task.stage == 0 {
                    if self.cfg.schedule.is_async() {
                        self.completed_units += 1;
                        self.iterations.push(IterationRecord {
                            iteration: task.unit,
                            finish: self.now,
                        });
                    }
                } else {
                    let cut_layer = self.epoch_for(task.unit).partition.stages[task.stage - 1]
                        .layers
                        .end
                        - 1;
                    let bytes = self.profile.cut_bytes(cut_layer) / self.micro as f64;
                    self.launch_transfer(
                        worker,
                        Task {
                            unit: task.unit,
                            stage: task.stage - 1,
                            kind: WorkKind::Backward,
                        },
                        bytes,
                    );
                }
                // Sync schedules: last backward of the iteration triggers
                // the flush barrier.
                if !self.cfg.schedule.is_async() && self.sync_pending_b == 0 {
                    let flush = (0..self.n_stages())
                        .map(|s| {
                            let st = &self.current_epoch().partition.stages[s];
                            self.cfg.scheme.sync_time(
                                self.current_epoch()
                                    .partition
                                    .stage_param_bytes(s, self.profile),
                                &st.workers,
                                &self.state,
                            ) / self.cfg.framework.comm_efficiency
                        })
                        .fold(0.0_f64, f64::max);
                    self.activities.push(Activity::Flush {
                        remaining_seconds: flush.max(1e-12),
                    });
                }
            }
        }
    }

    /// Advance the simulation until `n_iterations` mini-batches complete.
    ///
    /// Fails with [`SimError::Deadlock`] when the pipeline can no longer
    /// make progress, instead of aborting the process.
    pub fn run(mut self, n_iterations: usize) -> Result<SimResult, SimError> {
        let target = n_iterations as u64;
        let mut steps = 0usize;
        while self.done_count() < target {
            steps += 1;
            self.tick(steps, target)?;
        }
        Ok(self.finish())
    }

    /// Advance the simulation until `n_iterations` mini-batches complete,
    /// consulting `control` every `check_every` completed mini-batches.
    ///
    /// The callback receives the live cluster state, the completion count,
    /// the clock, and the measured speed (samples/sec) over the last
    /// window; returning `Some((partition, stall))` applies the partition
    /// **without stopping the pipeline**: in-flight mini-batches drain on
    /// the old assignment, new ones use the new (AutoPipe's fine-grained
    /// switching, §4.4), and workers whose tasks changed are frozen for
    /// `stall` seconds of migration.
    pub fn run_controlled<F>(
        mut self,
        n_iterations: usize,
        check_every: usize,
        mut control: F,
    ) -> Result<SimResult, SimError>
    where
        F: FnMut(&ClusterState, u64, f64, Option<f64>) -> Option<(Partition, f64, bool)>,
    {
        assert!(
            self.cfg.schedule.is_async(),
            "live switching requires an asynchronous schedule"
        );
        let target = n_iterations as u64;
        let check = check_every.max(1) as u64;
        let mut next_check = check;
        let mut prev_mark: Option<(u64, f64)> = None;
        let mut steps = 0usize;
        while self.done_count() < target {
            steps += 1;
            // A fault (failure or recovery) consults the controller out of
            // band: an emergency repartition cannot wait for the next
            // completion milestone — completions may never come.
            if self.fault_consult {
                self.fault_consult = false;
                if let Some((partition, stall, global_stall)) =
                    control(&self.state, self.done_count(), self.now, None)
                {
                    self.switch_partition(partition, stall, global_stall);
                }
            }
            self.tick(steps, target)?;
            if self.done_count() >= next_check && self.done_count() < target {
                next_check = self.done_count() + check;
                let measured = prev_mark.map(|(units, at)| {
                    (self.done_count() - units) as f64 * self.profile.batch as f64
                        / (self.now - at).max(1e-9)
                });
                prev_mark = Some((self.done_count(), self.now));
                if let Some((partition, stall, global_stall)) =
                    control(&self.state, self.done_count(), self.now, measured)
                {
                    self.switch_partition(partition, stall, global_stall);
                }
            }
        }
        Ok(self.finish())
    }

    /// Apply a new partition live.
    ///
    /// A structurally invalid proposal or one naming a worker outside the
    /// job is rejected (recorded as [`FaultRecord::SwitchRejected`]) rather
    /// than panicking mid-run: fault-path controllers synthesize emergency
    /// partitions, and the engine is the last line of defense.
    fn switch_partition(&mut self, new: Partition, stall: f64, global_stall: bool) {
        debug_assert!(new.validate(self.profile.n_layers()).is_ok());
        if new.validate(self.profile.n_layers()).is_err()
            || new
                .all_workers()
                .iter()
                .any(|g| !self.worker_index.contains_key(g))
        {
            self.fault_log
                .push(FaultRecord::SwitchRejected { at: self.now });
            return;
        }
        let old = self.current_epoch().partition.clone();
        // Stage counts may differ (merge/split moves); in-flight units keep
        // their own epoch's stage indices, so only the per-stage version
        // vector needs to cover the widest epoch.
        if new.n_stages() > self.versions.len() {
            let top = self.versions.iter().copied().max().unwrap_or(0);
            self.versions.resize(new.n_stages(), top);
        }
        // Freeze the workers whose assignment changes for the migration
        // stall (two workers for AutoPipe's incremental moves); a
        // stop-and-restart switch freezes everyone.
        let mut affected: Vec<usize> = Vec::new();
        if global_stall {
            for w in 0..self.workers.len() {
                self.ready_after[w] = self.ready_after[w].max(self.now + stall);
                affected.push(w);
            }
        } else {
            // Freeze every worker whose layer assignment changed.
            for g in &self.workers {
                let assigned = |p: &Partition| {
                    p.stages
                        .iter()
                        .find(|s| s.workers.contains(g))
                        .map(|s| s.layers.clone())
                };
                if assigned(&old) != assigned(&new) {
                    if let Some(&w) = self.worker_index.get(g) {
                        self.ready_after[w] = self.ready_after[w].max(self.now + stall);
                        affected.push(w);
                    }
                }
            }
        }
        let epoch = self.build_epoch(new, self.injected);
        self.epochs.push(epoch);
        if stall > 0.0 {
            // While the migration is in flight, a death of an affected
            // worker aborts and rolls back the switch.
            self.active_migration = Some(ActiveMigration {
                from: old,
                start_unit: self.injected,
                started: self.now,
                ends: self.now + stall,
                affected,
            });
            self.activities.push(Activity::Timer {
                remaining_seconds: stall,
            });
        }
        self.rehome_ready();
        self.try_restart_stranded();
    }

    /// Re-home queued (not yet started) tasks onto the owners their epoch
    /// dictates — queued tasks keep their original epoch, so only
    /// bookkeeping position changes, not semantics.
    fn rehome_ready(&mut self) {
        let queued: Vec<(u8, u64, usize)> = self
            .ready
            .iter()
            .flat_map(|q| q.0.iter().copied())
            .collect();
        for q in &mut self.ready {
            q.0.clear();
        }
        for (pri, unit, stage) in queued {
            let kind = if pri == 0 {
                WorkKind::Backward
            } else {
                WorkKind::Forward
            };
            self.mark_ready(Task { unit, stage, kind });
        }
    }

    /// Build an epoch for `partition`, shedding currently dead workers
    /// from its replica sets (the partition may still *name* them — e.g. a
    /// rollback target — but no work is ever scheduled on a dead worker).
    fn build_epoch(&self, partition: Partition, start_unit: u64) -> Epoch {
        let mut e = Epoch::build(
            partition,
            self.profile,
            self.micro,
            self.cfg.schedule.recompute_factor(),
            &self.worker_index,
            start_unit,
        );
        for reps in &mut e.stage_workers {
            reps.retain(|&w| !self.dead[w]);
        }
        e
    }

    /// Mark `unit` stranded and purge its in-flight state: queued tasks,
    /// feeding transfers, a running compute, and stashed forward versions.
    /// The unit's id stays live — it restarts from stage 0 later, so no
    /// mini-batch is ever silently dropped.
    fn strand_unit(&mut self, unit: u64) {
        self.stranded.insert(unit);
        for q in &mut self.ready {
            q.0.retain(|&(_, u, _)| u != unit);
        }
        let mut i = 0;
        while i < self.activities.len() {
            let drop = match &self.activities[i] {
                Activity::Transfer {
                    unlocks: Unlock::Task(t),
                    ..
                } => t.unit == unit,
                Activity::Compute { task, .. } => task.unit == unit,
                _ => false,
            };
            if drop {
                match self.activities.swap_remove(i) {
                    Activity::Compute { worker, .. } => self.worker_busy_flag[worker] = false,
                    Activity::Transfer { flow, .. } => self.retire_transfer(flow),
                    _ => {}
                }
            } else {
                i += 1;
            }
        }
        self.fwd_versions.retain(|&(u, _), _| u != unit);
    }

    /// Restart stranded units from stage 0 under the current partition
    /// once it is feasible again. Their partial work is discarded —
    /// re-done, never lost.
    fn try_restart_stranded(&mut self) {
        if self.stranded.is_empty() || !self.current_epoch_feasible() {
            return;
        }
        let units: Vec<u64> = std::mem::take(&mut self.stranded).into_iter().collect();
        let idx = self.epochs.len() - 1;
        let count = units.len();
        for u in units {
            self.epoch_override.insert(u, idx);
            self.mark_ready(Task {
                unit: u,
                stage: 0,
                kind: WorkKind::Forward,
            });
        }
        self.fault_log.push(FaultRecord::UnitsRestarted {
            count,
            at: self.now,
        });
    }

    /// Handle a fail-stop death of `g`: roll back a vulnerable in-flight
    /// migration, shed the worker from every partition regime, abort and
    /// requeue its work, and strand units whose stage lost its last
    /// replica.
    fn fail_worker(&mut self, g: GpuId) {
        let Some(&w) = self.worker_index.get(&g) else {
            return; // not one of this job's workers
        };
        if self.dead[w] {
            return;
        }
        self.dead[w] = true;
        self.fault_log.push(FaultRecord::WorkerFailed {
            worker: g,
            at: self.now,
        });
        self.fault_consult = true;
        // Mid-migration death of an affected worker aborts the switch
        // first, so the shedding below operates on the reinstated
        // pre-switch partition.
        if let Some(m) = self.active_migration.clone() {
            if self.now < m.ends - 1e-9 {
                if m.affected.contains(&w) {
                    self.rollback_migration(&m, g);
                }
            } else {
                self.active_migration = None;
            }
        }
        // Shed the worker from every regime's replica sets.
        for e in &mut self.epochs {
            for reps in &mut e.stage_workers {
                reps.retain(|&r| r != w);
            }
        }
        // Abort its running compute (that work is lost) and requeue the
        // task; queued tasks re-home onto surviving replicas (or strand).
        let mut requeue: Vec<Task> = Vec::new();
        let mut i = 0;
        while i < self.activities.len() {
            let aborts =
                matches!(&self.activities[i], Activity::Compute { worker, .. } if *worker == w);
            if aborts {
                if let Activity::Compute { task, .. } = self.activities.swap_remove(i) {
                    requeue.push(task);
                }
            } else {
                i += 1;
            }
        }
        self.worker_busy_flag[w] = false;
        self.sync_busy[w] = false;
        let queued = std::mem::take(&mut self.ready[w].0);
        for (pri, unit, stage) in queued {
            let kind = if pri == 0 {
                WorkKind::Backward
            } else {
                WorkKind::Forward
            };
            requeue.push(Task { unit, stage, kind });
        }
        for t in requeue {
            self.mark_ready(t);
        }
    }

    /// A failed worker comes back. It rejoins cold: no epoch references it
    /// until a later switch assigns it layers, so recovery alone never
    /// perturbs the running pipeline.
    fn recover_worker(&mut self, g: GpuId) {
        let Some(&w) = self.worker_index.get(&g) else {
            return;
        };
        if !self.dead[w] {
            return;
        }
        self.dead[w] = false;
        self.fault_log.push(FaultRecord::WorkerRecovered {
            worker: g,
            at: self.now,
        });
        self.fault_consult = true;
    }

    /// Undo a partial fine-grained migration after `victim` died inside
    /// the window. Completed steps revert in reverse stash-version order —
    /// within each moved layer the later active mini-batch's copy reverts
    /// first, the dual of the §4.4 forward order — which costs about as
    /// long as the partial copies took to make. The pre-switch partition
    /// is reinstated for the aborted epoch's units by shadowing it.
    fn rollback_migration(&mut self, m: &ActiveMigration, victim: GpuId) {
        self.active_migration = None;
        let progress = ((self.now - m.started) / (m.ends - m.started).max(1e-12)).clamp(0.0, 1.0);
        let rollback = (self.now - m.started).max(0.0);
        // Shadow the aborted epoch: a fresh regime with the pre-switch
        // partition at the same start unit wins the reverse scan for every
        // unit injected under the aborted one.
        let revert = self.build_epoch(m.from.clone(), m.start_unit);
        self.epochs.push(revert);
        // The aborted switch froze the affected workers until `m.ends`;
        // that freeze is void now — they are busy only for the rollback
        // copies, which take about as long as the partial forward copies
        // did. Override, don't max: the migration this freeze served no
        // longer exists.
        for &w in &m.affected {
            self.ready_after[w] = self.now + rollback;
        }
        if rollback > 0.0 {
            self.activities.push(Activity::Timer {
                remaining_seconds: rollback,
            });
        }
        self.fault_log.push(FaultRecord::MigrationRolledBack {
            worker: victim,
            at: self.now,
            progress,
            rollback_seconds: rollback,
        });
        self.rehome_ready();
    }

    /// One simulation step: inject, dispatch, advance to the next event.
    fn tick(&mut self, steps: usize, target: u64) -> Result<(), SimError> {
        const MAX_STEPS: usize = 50_000_000;
        if steps >= MAX_STEPS {
            return Err(SimError::StepBudgetExhausted { steps });
        }
        self.try_restart_stranded();
        self.inject();
        self.dispatch();
        if self.activities.is_empty() {
            // Nothing runnable: only resource events can advance time.
            match self.resources.next_event_after(self.res_cursor) {
                Some(t) => {
                    self.advance_to(t, 1.0);
                    return Ok(());
                }
                None => {
                    // Distinguish "a stage has no survivors" (worker loss
                    // nobody repaired) from a structural deadlock.
                    if let Some(stage) = self
                        .current_epoch()
                        .stage_workers
                        .iter()
                        .position(|r| r.is_empty())
                    {
                        return Err(SimError::WorkerLost {
                            stage,
                            at: self.now,
                            done: self.done_count(),
                            target,
                        });
                    }
                    return Err(SimError::Deadlock {
                        at: self.now,
                        done: self.done_count(),
                        target,
                    });
                }
            }
        }
        // Earliest completion among activities at current rates. Nothing
        // changes between here and the drain, so one solve serves both.
        if self.rates_dirty {
            self.solve_transfer_rates();
        }
        let share = self.compute_share();
        let mut t_done = f64::INFINITY;
        for a in &self.activities {
            let dt = match a {
                Activity::Compute {
                    worker,
                    remaining_flops,
                    ..
                } => remaining_flops / (self.compute_rates[*worker] * share).max(1e-6),
                Activity::Transfer {
                    remaining_bytes,
                    rate,
                    ..
                } => remaining_bytes / rate.max(1e-3),
                Activity::Flush { remaining_seconds } | Activity::Timer { remaining_seconds } => {
                    *remaining_seconds
                }
            };
            if dt < t_done {
                t_done = dt;
            }
        }
        let mut t_complete = self.now + t_done.max(0.0);
        // At large `now` a nearly-drained activity can need a dt below the
        // f64 resolution of the clock (`now + dt == now`), which would stall
        // time forever. Nudge to the next representable instant so the
        // activity keeps draining and eventually collects.
        if t_complete == self.now && t_done > 0.0 {
            t_complete = f64::from_bits(self.now.to_bits() + 1);
        }
        // A resource event may land first.
        let t_next = match self.resources.next_event_after(self.res_cursor) {
            Some(te) if te < t_complete => te,
            _ => t_complete,
        };
        self.advance_to(t_next, share);
        Ok(())
    }

    fn finish(&mut self) -> SimResult {
        SimResult {
            iterations: std::mem::take(&mut self.iterations),
            batch: self.profile.batch,
            busy: std::mem::take(&mut self.busy),
            makespan: self.now,
            segments: std::mem::take(&mut self.segments),
            mean_staleness: if self.staleness_n > 0 {
                self.staleness_sum / self.staleness_n as f64
            } else {
                0.0
            },
            faults: std::mem::take(&mut self.fault_log),
        }
    }

    fn done_count(&self) -> u64 {
        if self.cfg.schedule.is_async() {
            self.completed_units
        } else {
            self.sync_iteration
        }
    }

    /// Move time forward to `t`, draining activities at the transfer
    /// rates and compute `share` solved at `now`, and applying any
    /// resource events at exactly `t`. Rates and share only change at
    /// event boundaries, so one solve is exact for the whole [now, t]
    /// interval.
    fn advance_to(&mut self, t: f64, share: f64) {
        let dt = t - self.now;
        debug_assert!(dt >= -1e-9, "time went backwards");
        for a in &mut self.activities {
            match a {
                Activity::Compute {
                    worker,
                    remaining_flops,
                    ..
                } => {
                    let rate = self.compute_rates[*worker] * share;
                    *remaining_flops -= rate * dt;
                }
                Activity::Transfer {
                    remaining_bytes,
                    rate,
                    ..
                } => {
                    *remaining_bytes -= *rate * dt;
                }
                Activity::Flush { remaining_seconds } | Activity::Timer { remaining_seconds } => {
                    *remaining_seconds -= dt;
                }
            }
        }
        self.now = t;

        // Apply resource events scheduled at or before t. The handlers
        // never read the timeline, so it is set aside while they run.
        let resources = std::mem::take(&mut self.resources);
        let events = resources.events_between(self.res_cursor, t);
        for e in events {
            self.state.apply(&e.kind);
            match e.kind {
                EventKind::WorkerFail(g) => self.fail_worker(g),
                EventKind::WorkerRecover(g) => self.recover_worker(g),
                _ => {}
            }
        }
        if !events.is_empty() {
            self.refresh_rates();
        }
        self.resources = resources;
        self.res_cursor = self.res_cursor.max(t);
        // A migration window that elapsed without incident is no longer
        // vulnerable to rollback.
        if let Some(m) = &self.active_migration {
            if self.now >= m.ends - 1e-9 {
                self.active_migration = None;
            }
        }

        // Collect completions. Tolerances absorb float drain error: one
        // FLOP / one byte / a nanosecond are all far below model scale.
        let mut done = std::mem::take(&mut self.completed);
        let mut i = 0;
        while i < self.activities.len() {
            let finished = match &self.activities[i] {
                Activity::Compute {
                    remaining_flops, ..
                } => *remaining_flops <= 1.0,
                Activity::Transfer {
                    remaining_bytes, ..
                } => *remaining_bytes <= 1.0,
                Activity::Flush { remaining_seconds } | Activity::Timer { remaining_seconds } => {
                    *remaining_seconds <= 1e-9
                }
            };
            if finished {
                done.push(self.activities.swap_remove(i));
            } else {
                i += 1;
            }
        }
        for a in done.drain(..) {
            match a {
                Activity::Compute {
                    worker,
                    task,
                    started,
                    ..
                } => self.on_compute_done(worker, task, started),
                Activity::Transfer { flow, unlocks, .. } => {
                    self.retire_transfer(flow);
                    match unlocks {
                        Unlock::Task(t) => self.mark_ready(t),
                        Unlock::SyncDone(w) => self.sync_busy[w] = false,
                    }
                }
                Activity::Timer { .. } => {}
                Activity::Flush { .. } => {
                    for v in &mut self.versions {
                        *v += 1;
                    }
                    self.sync_iteration += 1;
                    self.iterations.push(IterationRecord {
                        iteration: self.sync_iteration - 1,
                        finish: self.now,
                    });
                }
            }
        }
        self.completed = done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Stage;
    use ap_cluster::gpu::GpuKind;
    use ap_cluster::{gbps, ClusterTopology, EventKind};
    use ap_models::{synthetic_uniform, ModelProfile};

    fn run_simple(
        schedule: ScheduleKind,
        n_iters: usize,
        link_gbps: f64,
        record: bool,
    ) -> SimResult {
        let topo = ClusterTopology::single_switch(4, 1, GpuKind::P100, link_gbps);
        let model = synthetic_uniform(8, 2e9, 4e6, 8e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let partition = Partition {
            stages: vec![
                Stage::new(0..2, vec![GpuId(0)]),
                Stage::new(2..4, vec![GpuId(1)]),
                Stage::new(4..6, vec![GpuId(2)]),
                Stage::new(6..8, vec![GpuId(3)]),
            ],
            in_flight: 4,
        };
        let cfg = EngineConfig {
            schedule,
            record_timeline: record,
            ..EngineConfig::default()
        };
        // Profile is borrowed by the engine; keep it alive in this frame.
        let state = ClusterState::new(topo);
        let eng =
            Engine::new(&profile, partition, state, ResourceTimeline::empty(), cfg).expect("valid");
        eng.run(n_iters).expect("run")
    }

    #[test]
    fn async_completes_requested_iterations_in_order() {
        let r = run_simple(ScheduleKind::PipeDreamAsync, 20, 100.0, false);
        assert_eq!(r.iterations.len(), 20);
        for w in r.iterations.windows(2) {
            assert!(w[1].finish >= w[0].finish);
        }
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn one_compute_slot_removes_the_pipelining_win() {
        // Same 4-stage pipeline, but a calibration says all four
        // "workers" are threads sharing one core. Processor sharing is
        // work-conserving, so throughput collapses to roughly the
        // serialized sum of stage work — within a few percent of the
        // in_flight=1 schedule on the same host — while the uncontended
        // run keeps its ~4x pipelining win.
        let topo = ClusterTopology::single_switch(4, 1, GpuKind::P100, 100.0);
        let model = synthetic_uniform(8, 2e9, 4e6, 8e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let mk = |in_flight| Partition {
            stages: vec![
                Stage::new(0..2, vec![GpuId(0)]),
                Stage::new(2..4, vec![GpuId(1)]),
                Stage::new(4..6, vec![GpuId(2)]),
                Stage::new(6..8, vec![GpuId(3)]),
            ],
            in_flight,
        };
        let run = |p: Partition, slots: usize| {
            let calibration = (slots > 0).then(|| {
                let mut c = Calibration::zero();
                c.compute_slots = slots;
                c
            });
            Engine::new(
                &profile,
                p,
                ClusterState::new(topo.clone()),
                ResourceTimeline::empty(),
                EngineConfig {
                    calibration,
                    ..EngineConfig::default()
                },
            )
            .expect("valid")
            .run(30)
            .expect("run")
            .steady_throughput(8)
        };
        let uncontended = run(mk(4), 0);
        let one_core = run(mk(4), 1);
        let sequential = run(mk(1), 1);
        assert!(
            uncontended > 2.5 * one_core,
            "one slot should erase the pipeline win: {one_core} vs {uncontended}"
        );
        let ratio = one_core / sequential;
        assert!(
            (0.9..1.5).contains(&ratio),
            "one-core pipelining should track serialized execution: \
             pipelined {one_core} vs sequential {sequential}"
        );
        // Plenty of slots behaves exactly like no calibration at all.
        let roomy = run(mk(4), 4);
        assert!(
            (roomy / uncontended - 1.0).abs() < 1e-9,
            "{roomy} vs {uncontended}"
        );
    }

    #[test]
    fn pipeline_beats_single_gpu_model_parallelism() {
        // 4-stage pipeline with in_flight=4 must beat in_flight=1 (pure
        // model parallelism) by roughly the stage count.
        let topo = ClusterTopology::single_switch(4, 1, GpuKind::P100, 100.0);
        let model = synthetic_uniform(8, 2e9, 4e6, 8e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let mk = |in_flight| Partition {
            stages: vec![
                Stage::new(0..2, vec![GpuId(0)]),
                Stage::new(2..4, vec![GpuId(1)]),
                Stage::new(4..6, vec![GpuId(2)]),
                Stage::new(6..8, vec![GpuId(3)]),
            ],
            in_flight,
        };
        let run = |p: Partition| {
            Engine::new(
                &profile,
                p,
                ClusterState::new(topo.clone()),
                ResourceTimeline::empty(),
                EngineConfig::default(),
            )
            .expect("valid")
            .run(30)
            .expect("run")
            .steady_throughput(8)
        };
        let pipelined = run(mk(4));
        let sequential = run(mk(1));
        assert!(
            pipelined > 3.0 * sequential,
            "pipelining should ~4x: {sequential} -> {pipelined}"
        );
    }

    #[test]
    fn startup_then_steady_utilization() {
        let r = run_simple(ScheduleKind::PipeDreamAsync, 40, 100.0, true);
        let util = r.utilization();
        // Last stage turns around immediately; all workers should be busy
        // most of the time in a balanced pipeline.
        assert!(util.iter().all(|&u| u > 0.5), "{util:?}");
        assert!(!r.segments.is_empty());
        // Segments never overlap per worker.
        for w in 0..4 {
            let mut segs: Vec<_> = r.segments.iter().filter(|s| s.worker == w).collect();
            segs.sort_by(|a, b| a.start.total_cmp(&b.start));
            for pair in segs.windows(2) {
                assert!(pair[1].start >= pair[0].end - 1e-9);
            }
        }
    }

    #[test]
    fn staleness_bounded_by_in_flight() {
        let r = run_simple(ScheduleKind::PipeDreamAsync, 50, 100.0, false);
        assert!(r.mean_staleness <= 4.0 + 1e-9);
        assert!(r.mean_staleness > 0.0, "deep pipeline must show staleness");
    }

    #[test]
    fn sync_schedule_completes_and_is_slower_than_async() {
        let a = run_simple(ScheduleKind::PipeDreamAsync, 12, 100.0, false);
        let g = run_simple(ScheduleKind::Dapple { micro_batches: 4 }, 12, 100.0, false);
        assert_eq!(g.iterations.len(), 12);
        assert!(g.steady_throughput(2) < a.steady_throughput(2));
        assert_eq!(g.mean_staleness, 0.0);
    }

    #[test]
    fn bandwidth_drop_slows_the_speed_series() {
        let topo = ClusterTopology::single_switch(4, 1, GpuKind::P100, 10.0);
        // Communication-heavy synthetic model.
        let model = synthetic_uniform(8, 5e8, 60e6, 8e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let partition = Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0)]),
                Stage::new(4..8, vec![GpuId(1)]),
            ],
            in_flight: 2,
        };
        let mut tl = ResourceTimeline::empty();
        // Halve bandwidth "mid-training" (iterations complete in ~3.3 s
        // pairs, so t=30 lands around iteration 9).
        tl.push(30.0, EventKind::ScaleAllLinks(0.5));
        let r = Engine::new(
            &profile,
            partition,
            ClusterState::new(topo),
            tl,
            EngineConfig::default(),
        )
        .expect("valid")
        .run(40)
        .expect("run");
        let series = r.speed_series(2);
        let early: Vec<f64> = series
            .iter()
            .filter(|&&(i, _)| i < 8)
            .map(|&(_, s)| s)
            .collect();
        let late: Vec<f64> = series
            .iter()
            .filter(|&&(i, _)| i > 24)
            .map(|&(_, s)| s)
            .collect();
        assert!(!early.is_empty() && !late.is_empty());
        let early = early.iter().sum::<f64>() / early.len() as f64;
        let late = late.iter().sum::<f64>() / late.len() as f64;
        assert!(
            late < 0.7 * early,
            "halved bandwidth must slow a comm-bound job: {early} -> {late}"
        );
    }

    #[test]
    fn contention_event_slows_compute_bound_job() {
        let topo = ClusterTopology::single_switch(2, 1, GpuKind::P100, 100.0);
        let model = synthetic_uniform(4, 4e9, 1e6, 4e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let partition = Partition {
            stages: vec![
                Stage::new(0..2, vec![GpuId(0)]),
                Stage::new(2..4, vec![GpuId(1)]),
            ],
            in_flight: 2,
        };
        let mut tl = ResourceTimeline::empty();
        tl.push(
            2.0,
            EventKind::JobArrive {
                id: ap_cluster::dynamics::BgJobId(1),
                gpus: vec![GpuId(0), GpuId(1)],
                net_bytes_per_sec: 0.0,
            },
        );
        let r = Engine::new(
            &profile,
            partition,
            ClusterState::new(topo),
            tl,
            EngineConfig::default(),
        )
        .expect("valid")
        .run(50)
        .expect("run");
        let series = r.speed_series(3);
        let early = series[1].1;
        let late = series.last().unwrap().1;
        assert!(
            (early / late - 2.0).abs() < 0.5,
            "2-way sharing should ~halve speed: {early} -> {late}"
        );
    }

    #[test]
    fn gpipe_drains_forwards_before_backwards() {
        let a = run_simple(ScheduleKind::GPipe { micro_batches: 4 }, 6, 100.0, true);
        // Within each worker's timeline, the first backward of an
        // iteration never precedes the last forward of that iteration by
        // construction of the phase preference; cheap proxy: GPipe is
        // slower than DAPPLE (recompute + worse overlap).
        let d = run_simple(ScheduleKind::Dapple { micro_batches: 4 }, 6, 100.0, false);
        assert!(a.steady_throughput(1) < d.steady_throughput(1));
    }

    #[test]
    fn live_switch_mid_run_reroutes_new_units() {
        // Start on a lopsided 2-stage plan; switch to the balanced one at
        // the 6th completion; the run finishes and speeds up.
        let topo = ClusterTopology::single_switch(2, 1, GpuKind::P100, 100.0);
        let model = synthetic_uniform(8, 2e9, 1e5, 1e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let lopsided = Partition {
            stages: vec![
                Stage::new(0..1, vec![GpuId(0)]),
                Stage::new(1..8, vec![GpuId(1)]),
            ],
            in_flight: 6,
        };
        let balanced = Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0)]),
                Stage::new(4..8, vec![GpuId(1)]),
            ],
            in_flight: 6,
        };
        let mut switched = false;
        let r = Engine::new(
            &profile,
            lopsided,
            ClusterState::new(topo),
            ResourceTimeline::empty(),
            EngineConfig::default(),
        )
        .expect("valid")
        .run_controlled(40, 6, |_, _, _, _| {
            if switched {
                None
            } else {
                switched = true;
                Some((balanced.clone(), 0.001, false))
            }
        })
        .expect("run");
        assert!(switched);
        assert!(r.iterations.len() >= 40);
        for w in r.iterations.windows(2) {
            assert!(w[1].finish >= w[0].finish - 1e-9);
        }
        // Tail (post-switch, drained) runs ~2x the lopsided head.
        let head = 5.0 * 32.0 / (r.iterations[5].finish - r.iterations[0].finish);
        let last = r.iterations.len() - 1;
        let tail = 5.0 * 32.0 / (r.iterations[last].finish - r.iterations[last - 5].finish);
        assert!(
            tail > 1.3 * head,
            "live switch should speed the tail: {head:.1} -> {tail:.1}"
        );
    }

    #[test]
    fn replicated_stage_survives_one_replica_failing() {
        // Stage 0 is 2-way replicated; killing one replica mid-run re-homes
        // its work onto the survivor and every mini-batch still completes.
        let topo = ClusterTopology::single_switch(3, 1, GpuKind::P100, 100.0);
        let model = synthetic_uniform(8, 2e9, 4e6, 8e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let partition = Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0), GpuId(1)]),
                Stage::new(4..8, vec![GpuId(2)]),
            ],
            in_flight: 3,
        };
        let mut tl = ResourceTimeline::empty();
        tl.push(2.0, EventKind::WorkerFail(GpuId(1)));
        let r = Engine::new(
            &profile,
            partition,
            ClusterState::new(topo),
            tl,
            EngineConfig::default(),
        )
        .expect("valid")
        .run(30)
        .expect("survives replica loss");
        let mut ids: Vec<u64> = r.iterations.iter().map(|i| i.iteration).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..30).collect::<Vec<u64>>(), "no mini-batch lost");
        assert!(r
            .faults
            .iter()
            .any(|f| matches!(f, FaultRecord::WorkerFailed { worker, .. } if *worker == GpuId(1))));
    }

    #[test]
    fn sole_worker_loss_is_a_typed_error_not_a_wedge() {
        let topo = ClusterTopology::single_switch(2, 1, GpuKind::P100, 100.0);
        let model = synthetic_uniform(8, 2e9, 4e6, 8e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let partition = Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0)]),
                Stage::new(4..8, vec![GpuId(1)]),
            ],
            in_flight: 2,
        };
        let mut tl = ResourceTimeline::empty();
        tl.push(1.0, EventKind::WorkerFail(GpuId(1)));
        let err = Engine::new(
            &profile,
            partition,
            ClusterState::new(topo),
            tl,
            EngineConfig::default(),
        )
        .expect("valid")
        .run(1000)
        .expect_err("an unrepaired stage loss must error");
        assert!(
            matches!(err, SimError::WorkerLost { stage: 1, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn controlled_run_repartitions_around_a_dead_worker() {
        let topo = ClusterTopology::single_switch(2, 1, GpuKind::P100, 100.0);
        let model = synthetic_uniform(8, 2e9, 4e6, 8e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let partition = Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0)]),
                Stage::new(4..8, vec![GpuId(1)]),
            ],
            in_flight: 2,
        };
        let solo = Partition {
            stages: vec![Stage::new(0..8, vec![GpuId(0)])],
            in_flight: 1,
        };
        let mut tl = ResourceTimeline::empty();
        tl.push(1.5, EventKind::WorkerFail(GpuId(1)));
        let mut emergencies = 0;
        let r = Engine::new(
            &profile,
            partition,
            ClusterState::new(topo),
            tl,
            EngineConfig::default(),
        )
        .expect("valid")
        .run_controlled(30, 5, |state, _, _, _| {
            if state.failed_workers().contains(&GpuId(1)) && emergencies == 0 {
                emergencies += 1;
                Some((solo.clone(), 0.01, false))
            } else {
                None
            }
        })
        .expect("emergency repartition must save the run");
        assert_eq!(emergencies, 1, "fault consult must fire out of band");
        let mut ids: Vec<u64> = r.iterations.iter().map(|i| i.iteration).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..30).collect::<Vec<u64>>(), "no mini-batch lost");
        // Units stranded at the dead stage were restarted, not dropped.
        assert!(r
            .faults
            .iter()
            .any(|f| matches!(f, FaultRecord::UnitsRestarted { count, .. } if *count > 0)));
    }

    #[test]
    fn mid_migration_failure_rolls_back_and_recovers() {
        let topo = ClusterTopology::single_switch(2, 1, GpuKind::P100, 100.0);
        let model = synthetic_uniform(8, 2e9, 1e5, 1e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let lopsided = Partition {
            stages: vec![
                Stage::new(0..1, vec![GpuId(0)]),
                Stage::new(1..8, vec![GpuId(1)]),
            ],
            in_flight: 4,
        };
        let balanced = Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0)]),
                Stage::new(4..8, vec![GpuId(1)]),
            ],
            in_flight: 4,
        };
        let solo = Partition {
            stages: vec![Stage::new(0..8, vec![GpuId(0)])],
            in_flight: 1,
        };
        // GpuId(1) dies at t=50, long before the (enormous) migration
        // window closes — the switch must roll back, then the emergency
        // repartition onto GpuId(0) saves the run.
        let mut tl = ResourceTimeline::empty();
        tl.push(50.0, EventKind::WorkerFail(GpuId(1)));
        let mut phase = 0;
        let r = Engine::new(
            &profile,
            lopsided,
            ClusterState::new(topo),
            tl,
            EngineConfig::default(),
        )
        .expect("valid")
        .run_controlled(40, 4, |state, _, _, _| {
            if state.failed_workers().contains(&GpuId(1)) {
                if phase < 2 {
                    phase = 2;
                    return Some((solo.clone(), 0.01, false));
                }
                return None;
            }
            if phase == 0 {
                phase = 1;
                // A migration "in flight" for a very long time: both
                // workers' assignments change, so both are vulnerable.
                return Some((balanced.clone(), 1e6, false));
            }
            None
        })
        .expect("rollback + emergency repartition must save the run");
        assert_eq!(phase, 2);
        let rolled: Vec<_> = r
            .faults
            .iter()
            .filter(|f| matches!(f, FaultRecord::MigrationRolledBack { .. }))
            .collect();
        assert_eq!(rolled.len(), 1, "exactly one rollback: {:?}", r.faults);
        if let FaultRecord::MigrationRolledBack {
            worker, progress, ..
        } = rolled[0]
        {
            assert_eq!(*worker, GpuId(1));
            assert!((0.0..1.0).contains(progress));
        }
        let mut ids: Vec<u64> = r.iterations.iter().map(|i| i.iteration).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..40).collect::<Vec<u64>>(), "no mini-batch lost");
    }

    #[test]
    fn switch_naming_an_unknown_worker_is_rejected_not_a_panic() {
        let topo = ClusterTopology::single_switch(3, 1, GpuKind::P100, 100.0);
        let model = synthetic_uniform(8, 2e9, 4e6, 8e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let partition = Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0)]),
                Stage::new(4..8, vec![GpuId(1)]),
            ],
            in_flight: 2,
        };
        // GpuId(2) exists in the cluster but is not part of this job.
        let bogus = Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0)]),
                Stage::new(4..8, vec![GpuId(2)]),
            ],
            in_flight: 2,
        };
        let mut asked = false;
        let r = Engine::new(
            &profile,
            partition,
            ClusterState::new(topo),
            ResourceTimeline::empty(),
            EngineConfig::default(),
        )
        .expect("valid")
        .run_controlled(20, 5, |_, _, _, _| {
            if asked {
                None
            } else {
                asked = true;
                Some((bogus.clone(), 0.01, false))
            }
        })
        .expect("rejected switch must not sink the run");
        assert!(r
            .faults
            .iter()
            .any(|f| matches!(f, FaultRecord::SwitchRejected { .. })));
        assert_eq!(r.iterations.len(), 20);
    }

    #[test]
    fn recovered_worker_rejoins_on_the_next_switch() {
        let topo = ClusterTopology::single_switch(2, 1, GpuKind::P100, 100.0);
        let model = synthetic_uniform(8, 2e9, 4e6, 8e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let two = Partition {
            stages: vec![
                Stage::new(0..4, vec![GpuId(0)]),
                Stage::new(4..8, vec![GpuId(1)]),
            ],
            in_flight: 2,
        };
        let solo = Partition {
            stages: vec![Stage::new(0..8, vec![GpuId(0)])],
            in_flight: 1,
        };
        let mut tl = ResourceTimeline::empty();
        tl.push(1.0, EventKind::WorkerFail(GpuId(1)));
        tl.push(6.0, EventKind::WorkerRecover(GpuId(1)));
        let mut went_solo = false;
        let mut back = false;
        let r = Engine::new(
            &profile,
            two.clone(),
            ClusterState::new(topo),
            tl,
            EngineConfig::default(),
        )
        .expect("valid")
        .run_controlled(60, 5, |state, _, _, _| {
            if !state.is_available(GpuId(1)) {
                if !went_solo {
                    went_solo = true;
                    return Some((solo.clone(), 0.01, false));
                }
                return None;
            }
            if went_solo && !back {
                back = true;
                return Some((two.clone(), 0.01, false));
            }
            None
        })
        .expect("recovery round trip");
        assert!(back, "controller must see the recovery");
        assert!(r.faults.iter().any(
            |f| matches!(f, FaultRecord::WorkerRecovered { worker, .. } if *worker == GpuId(1))
        ));
        assert_eq!(r.iterations.len(), 60);
    }

    #[test]
    fn gbps_sanity_for_transfer_dominated_pipeline() {
        // One cut of 125 MB at 10 Gbps (=1.25 GB/s) costs ~0.1 s per
        // direction; iteration time must be at least that.
        let topo = ClusterTopology::single_switch(2, 1, GpuKind::P100, 10.0);
        let model = synthetic_uniform(2, 1e6, 125e6 / 32.0, 1e6);
        let profile = ModelProfile::with_batch(&model, 32);
        let partition = Partition {
            stages: vec![
                Stage::new(0..1, vec![GpuId(0)]),
                Stage::new(1..2, vec![GpuId(1)]),
            ],
            in_flight: 2,
        };
        let r = Engine::new(
            &profile,
            partition,
            ClusterState::new(topo),
            ResourceTimeline::empty(),
            EngineConfig::default(),
        )
        .expect("valid")
        .run(10)
        .expect("run");
        let per_iter = r.makespan / 10.0;
        let floor = 125e6 / (gbps(10.0) * 0.92);
        assert!(
            per_iter >= floor * 0.9,
            "per_iter {per_iter} < floor {floor}"
        );
    }

    /// The schedule-zoo bench: a 3-stage uniform pipeline (6 layers,
    /// batch 32, 10 Gbps) run for 48 mini-batches under `kind`.
    fn run_zoo(kind: ScheduleKind, calibration: Option<Calibration>) -> SimResult {
        let model = synthetic_uniform(6, 2e9, 4e5, 8e5);
        let profile = ModelProfile::with_batch(&model, 32);
        let partition = Partition {
            stages: vec![
                Stage::new(0..2, vec![GpuId(0)]),
                Stage::new(2..4, vec![GpuId(1)]),
                Stage::new(4..6, vec![GpuId(2)]),
            ],
            in_flight: 3,
        };
        let state = ClusterState::new(ClusterTopology::single_switch(3, 1, GpuKind::P100, 10.0));
        let cfg = EngineConfig {
            schedule: kind,
            calibration,
            ..EngineConfig::default()
        };
        Engine::new(&profile, partition, state, ResourceTimeline::empty(), cfg)
            .expect("valid")
            .run(48)
            .expect("run")
    }

    fn zoo_throughput(kind: ScheduleKind) -> f64 {
        run_zoo(kind, None).steady_throughput(16)
    }

    #[test]
    fn every_zoo_kind_completes_every_mini_batch_in_order() {
        for kind in ScheduleKind::zoo() {
            let r = run_zoo(kind, None);
            assert_eq!(r.iterations.len(), 48, "{}", kind.label());
            assert!(
                r.iterations.windows(2).all(|w| w[0].finish <= w[1].finish),
                "{} finish times must be monotone",
                kind.label()
            );
        }
    }

    #[test]
    fn async_beats_dapple_beats_gpipe() {
        let pd = zoo_throughput(ScheduleKind::PipeDreamAsync);
        let dapple = zoo_throughput(ScheduleKind::Dapple { micro_batches: 4 });
        let gpipe = zoo_throughput(ScheduleKind::GPipe { micro_batches: 4 });
        assert!(pd > dapple, "PipeDream {pd} <= DAPPLE {dapple}");
        // GPipe pays the recompute tax on top of the same bubble.
        assert!(dapple > gpipe, "DAPPLE {dapple} <= GPipe {gpipe}");
    }

    #[test]
    fn more_micro_batches_shrink_the_gpipe_bubble() {
        let m2 = zoo_throughput(ScheduleKind::GPipe { micro_batches: 2 });
        let m8 = zoo_throughput(ScheduleKind::GPipe { micro_batches: 8 });
        assert!(m8 > m2, "m=8 {m8} <= m=2 {m2}");
    }

    #[test]
    fn calibration_slows_the_async_pipeline_down() {
        let raw = zoo_throughput(ScheduleKind::PipeDreamAsync);
        let cal = Calibration {
            per_frame_s: 2e-6,
            per_byte_s: 1e-9,
            stage_overhead_s: 2e-5,
            stash_byte_s: 5e-10,
            compute_slots: 2,
        };
        let calibrated = run_zoo(ScheduleKind::PipeDreamAsync, Some(cal)).steady_throughput(16);
        assert!(calibrated < raw, "calibrated {calibrated} >= raw {raw}");
    }

    #[test]
    fn ready_queue_orders_and_dedups_like_an_ordered_set() {
        let mut rng = ap_rng::Rng::seed_from_u64(3);
        let mut queue = ReadyQueue::default();
        let mut set = BTreeSet::new();
        for _ in 0..2000 {
            let key = (
                rng.gen_range(0..2u32) as u8,
                rng.gen_range(0..12u64),
                rng.gen_range(0..3usize),
            );
            if rng.gen_range(0..3u32) == 0 {
                queue.remove(key);
                set.remove(&key);
            } else {
                queue.insert(key);
                set.insert(key);
            }
            assert!(queue.0.iter().eq(set.iter()));
        }
    }
}
