//! The cluster scheduler: a deterministic event loop that keeps a live
//! cluster-wide placement while jobs arrive, finish and fail.
//!
//! On each event it re-plans only the **contention neighborhood** of the
//! event — the jobs sharing a GPU or a server link with the affected
//! footprint, found through the [`ContentionIndex`] in O(degree) — rather
//! than running best-response over the world. Two convergence guards keep
//! an event from rippling across the whole cluster:
//!
//! * **bounded ripple** — re-planning fans out at most
//!   [`SchedConfig::max_ripple_rounds`] hops from the event, and no job is
//!   re-planned twice for one event;
//! * **priced switching** — a neighbor's re-plan is kept only if its
//!   predicted relative gain clears [`SchedConfig::switch_gate`] *plus*
//!   the migration cost of the move amortized over
//!   [`SchedConfig::switch_horizon_s`] — the same reasoning as the
//!   single-job arbiter's threshold mode, so an unaffected job is not
//!   shuffled for noise.
//!
//! Time comes from an injected [`Clock`] (only for latency measurement —
//! no planning decision reads it), so smoke runs with a
//! [`ap_resilience::FakeClock`] are byte-deterministic.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use ap_cluster::dynamics::BgJobId;
use ap_cluster::{ClusterState, ClusterTopology, EventKind, GpuId, LinkId, ServerId};
use ap_mem::{check as mem_check, clamp_in_flight, MemCheck, MemoryModel};
use ap_models::ModelProfile;
use ap_pipesim::{AnalyticModel, Partition, SwitchPlan};
use ap_planner::{pipedream_plan, PipeDreamView};
use ap_resilience::Clock;

use crate::admission::{
    least_loaded, link_headroom_ok, select_footprint, validate_size, AdmissionConfig, QueueReason,
    RejectReason,
};
use crate::index::ContentionIndex;
use crate::objective::ClusterObjective;
use crate::tenancy::{comm_bytes_per_sec, MultiJobEnv, ProposePlan};

/// Identifier of a job managed by the scheduler, assigned at arrival in
/// admission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// What a client asks for.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Display / model name (reported in the schedule; not interpreted).
    pub name: String,
    /// The model to train.
    pub profile: ModelProfile,
    /// GPUs wanted.
    pub gpus: usize,
    /// Whether the job re-plans with the tenancy (AutoPipe) or keeps its
    /// admission-time partition.
    pub adaptive: bool,
}

/// A job currently placed on the fabric.
#[derive(Debug, Clone)]
pub struct ResidentJob {
    /// Scheduler-assigned id.
    pub id: JobId,
    /// Display / model name.
    pub name: String,
    /// The model.
    pub profile: ModelProfile,
    /// Current partition; its worker set is the job's GPU footprint.
    pub partition: Partition,
    /// Modeled per-stage memory demand vs device capacity at planning
    /// time (every stage fits — infeasible plans are never planted).
    pub mem: MemCheck,
    /// Re-plans with the tenancy when true.
    pub adaptive: bool,
    /// Cached per-server network load (bytes/s) the job contributes,
    /// estimated against an otherwise-exclusive cluster.
    pub net_bytes_per_sec: f64,
    /// Analytic predicted throughput under the tenancy at last planning,
    /// samples/s.
    pub predicted: f64,
    /// Analytic predicted throughput of the same partition on an empty
    /// cluster (the fairness denominator).
    pub solo: f64,
    /// Event time of admission, seconds.
    pub arrived_at: f64,
}

/// The typed result of an admission attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Placed on the fabric.
    Placed(JobId),
    /// Waiting; retried on every departure / recovery.
    Queued(JobId, QueueReason),
    /// Never admissible on this cluster.
    Rejected(RejectReason),
}

/// An event fed to [`ClusterScheduler::on_event`].
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one event per arrival, never stored in bulk
pub enum SchedEvent {
    /// A job arrives.
    Arrive(JobRequest),
    /// A resident or queued job finishes / is cancelled.
    Depart(JobId),
    /// A worker dies fail-stop.
    WorkerFail(GpuId),
    /// A failed worker comes back (cold).
    WorkerRecover(GpuId),
    /// A server NIC degrades to the given Gbps.
    LinkFlapDown(ServerId, f64),
    /// The NIC recovers its pre-flap rate.
    LinkFlapRestore(ServerId),
}

/// Per-event re-planning statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplanStats {
    /// Jobs in the extracted neighborhood (before ripple).
    pub neighborhood: usize,
    /// Jobs actually offered a re-plan (across ripple rounds).
    pub considered: usize,
    /// Re-plans accepted through the switch gate.
    pub moved: usize,
    /// Wall-clock seconds spent planning for this event (0 under a fake
    /// clock).
    pub latency_s: f64,
}

/// What one event did, in aggregate.
#[derive(Debug, Clone)]
pub struct EventOutcome {
    /// Admission result, for arrival events.
    pub admit: Option<AdmitOutcome>,
    /// Neighborhood re-planning stats.
    pub replan: ReplanStats,
    /// Queued jobs admitted as a side effect (departures / recoveries).
    pub dequeued: Vec<JobId>,
    /// Jobs evacuated off a failed worker.
    pub evacuated: Vec<JobId>,
}

/// Monotone counters, exported to `/metrics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedCounters {
    /// Events processed.
    pub events: u64,
    /// Jobs placed (admissions + queue drains + evacuations re-placed).
    pub placed: u64,
    /// Jobs that entered the queue at least once.
    pub queued: u64,
    /// Jobs rejected outright.
    pub rejected: u64,
    /// Jobs departed after being placed.
    pub completed: u64,
    /// Jobs moved off a failed worker.
    pub evacuated: u64,
    /// Re-plan proposals considered across all events.
    pub replans_considered: u64,
    /// Re-plans accepted (placements changed).
    pub plans_moved: u64,
}

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Shared workload configuration (scheme / framework / schedule).
    pub env: MultiJobEnv,
    /// Admission fit-check knobs.
    pub admission: AdmissionConfig,
    /// Ripple bound: how many hops a re-plan may fan out from the event.
    pub max_ripple_rounds: usize,
    /// Minimum relative throughput gain before a resident job is moved.
    pub switch_gate: f64,
    /// Seconds over which a migration's cost must amortize (the priced
    /// part of the switch gate).
    pub switch_horizon_s: f64,
    /// Knobs of the [`ap_mem`] planning memory model admission and
    /// re-planning price partitions with.
    pub mem_model: MemoryModel,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            env: MultiJobEnv::default(),
            admission: AdmissionConfig::default(),
            max_ripple_rounds: 2,
            switch_gate: 0.02,
            switch_horizon_s: 120.0,
            mem_model: MemoryModel::default(),
        }
    }
}

/// Why [`ClusterScheduler::try_place`] could not plant a job: a transient
/// shortage (queue and retry) or a final memory rejection.
enum PlaceFailure {
    Queue(QueueReason),
    Reject(RejectReason),
}

/// What [`price_replan`] decided for one job.
enum Replan {
    /// Keep the current plan; carries its prediction under the tenancy.
    Keep(f64),
    /// Move to this partition, predicted to run at this throughput.
    Move(Partition, f64),
}

impl From<QueueReason> for PlaceFailure {
    fn from(r: QueueReason) -> Self {
        PlaceFailure::Queue(r)
    }
}

/// The control plane: resident jobs, their live placement, the contention
/// index, and the admission queue.
pub struct ClusterScheduler {
    /// The fabric with nothing resident: its topology is the one under
    /// management, and solo throughput and network load are priced
    /// against it.
    exclusive: ClusterState,
    cfg: SchedConfig,
    planner: Box<dyn ProposePlan + Send>,
    clock: Arc<dyn Clock>,
    /// Base state: fabric health plus **every** resident job applied as a
    /// background job. A job's own view is this state with the job
    /// detached in place ([`ClusterState::with_detached`]).
    state: ClusterState,
    jobs: BTreeMap<JobId, ResidentJob>,
    queue: VecDeque<(JobRequest, JobId, QueueReason)>,
    index: ContentionIndex,
    next_id: u64,
    now: f64,
    counters: SchedCounters,
}

impl ClusterScheduler {
    /// A scheduler over an empty fabric.
    pub fn new(
        topo: ClusterTopology,
        cfg: SchedConfig,
        planner: Box<dyn ProposePlan + Send>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let state = ClusterState::new(topo.clone());
        let index = ContentionIndex::new(&topo);
        ClusterScheduler {
            exclusive: ClusterState::new(topo),
            cfg,
            planner,
            clock,
            state,
            jobs: BTreeMap::new(),
            queue: VecDeque::new(),
            index,
            next_id: 0,
            now: 0.0,
            counters: SchedCounters::default(),
        }
    }

    /// An identical scheduler (same jobs, placement, queue, counters)
    /// driving a different planner — the hook benchmarks use to run
    /// whole-world best-response from the same state without disturbing
    /// the live instance.
    pub fn fork(&self, planner: Box<dyn ProposePlan + Send>) -> ClusterScheduler {
        ClusterScheduler {
            exclusive: self.exclusive.clone(),
            cfg: self.cfg.clone(),
            planner,
            clock: Arc::clone(&self.clock),
            state: self.state.clone(),
            jobs: self.jobs.clone(),
            queue: self.queue.clone(),
            index: self.index.clone(),
            next_id: self.next_id,
            now: self.now,
            counters: self.counters,
        }
    }

    /// The fabric under management.
    pub fn topology(&self) -> &ClusterTopology {
        &self.exclusive.topology
    }

    /// Resident jobs, in id order.
    pub fn jobs(&self) -> impl Iterator<Item = &ResidentJob> {
        self.jobs.values()
    }

    /// One resident job.
    pub fn job(&self, id: JobId) -> Option<&ResidentJob> {
        self.jobs.get(&id)
    }

    /// Queued `(request, id, reason)` entries, FIFO.
    pub fn queued(&self) -> impl Iterator<Item = (&JobRequest, JobId, QueueReason)> {
        self.queue.iter().map(|(r, id, why)| (r, *id, *why))
    }

    /// Resident job count.
    pub fn n_resident(&self) -> usize {
        self.jobs.len()
    }

    /// Queue depth.
    pub fn n_queued(&self) -> usize {
        self.queue.len()
    }

    /// Monotone counters.
    pub fn counters(&self) -> SchedCounters {
        self.counters
    }

    /// Event time of the last processed event, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    fn bg(id: JobId) -> BgJobId {
        BgJobId(id.0)
    }

    /// Per-server network load (bytes/s) of a placement, estimated
    /// against an otherwise-exclusive cluster so the figure is a property
    /// of the job alone (stable, cacheable, order-independent).
    fn net_estimate(&self, profile: &ModelProfile, p: &Partition) -> f64 {
        comm_bytes_per_sec(profile, p, &self.exclusive, &self.cfg.env) / p.n_workers().max(1) as f64
    }

    fn solo_throughput(&self, profile: &ModelProfile, p: &Partition) -> f64 {
        analytic_throughput(&self.cfg.env, profile, p, &self.exclusive)
    }

    /// Seed a partition for `footprint` with PipeDream's static plan under
    /// nominal conditions.
    fn seed_partition(&self, profile: &ModelProfile, footprint: &[GpuId]) -> Partition {
        let topo = self.topology();
        let bandwidth = footprint
            .iter()
            .map(|&g| topo.link_capacity(LinkId::Up(topo.server_of(g))))
            .fold(f64::INFINITY, f64::min);
        let gpu_flops = footprint
            .iter()
            .map(|&g| topo.gpu(g).kind.peak_flops())
            .fold(f64::INFINITY, f64::min);
        pipedream_plan(
            profile,
            footprint,
            PipeDreamView {
                bandwidth,
                gpu_flops,
            },
        )
    }

    /// Insert a planned job into the index and the base state.
    fn plant(&mut self, job: ResidentJob) {
        let gpus = job.partition.all_workers();
        self.index.insert(&self.exclusive.topology, job.id, &gpus);
        self.state.apply(&EventKind::JobArrive {
            id: Self::bg(job.id),
            gpus,
            net_bytes_per_sec: job.net_bytes_per_sec,
        });
        self.jobs.insert(job.id, job);
    }

    /// Remove a resident job from the index and the base state.
    fn uproot(&mut self, id: JobId) -> Option<ResidentJob> {
        let job = self.jobs.remove(&id)?;
        self.index
            .remove(&self.exclusive.topology, id, &job.partition.all_workers());
        self.state.apply(&EventKind::JobDepart(Self::bg(id)));
        Some(job)
    }

    /// Clamp `partition`'s in-flight depth to what its devices can hold.
    /// `Err` carries the depth-1 deficit when no depth fits (final —
    /// shrinking the stash further is not possible).
    fn fit_memory(
        &self,
        profile: &ModelProfile,
        partition: &mut Partition,
    ) -> Result<MemCheck, RejectReason> {
        let kind = self.cfg.env.schedule;
        if let Some(check) =
            clamp_in_flight(profile, partition, kind, &self.cfg.mem_model, &self.state)
        {
            return Ok(check);
        }
        let mut probe = partition.clone();
        probe.in_flight = 1;
        let deficit =
            mem_check(profile, &probe, kind, &self.cfg.mem_model, &self.state).worst_deficit();
        Err(RejectReason::MemoryInfeasible {
            deficit_bytes: deficit.ceil() as u64,
        })
    }

    /// Try to place `req` right now (no queueing — the caller decides what
    /// a transient failure means).
    fn try_place(&mut self, req: &JobRequest, id: JobId) -> Result<(), PlaceFailure> {
        let footprint = select_footprint(req.gpus, &self.state, &self.index, &self.cfg.admission)?;
        let seed = self.seed_partition(&req.profile, &footprint);
        // Refine against the state the current tenancy induces (the job is
        // not planted yet, so the base state *is* everyone else).
        let mut refined = self
            .planner
            .propose(&req.profile, &seed, &self.state, &self.cfg.env);
        let mem = self
            .fit_memory(&req.profile, &mut refined)
            .map_err(PlaceFailure::Reject)?;
        let net = self.net_estimate(&req.profile, &refined);
        if !link_headroom_ok(&self.state, &footprint, net, &self.cfg.admission) {
            return Err(PlaceFailure::Queue(QueueReason::LinkSaturated));
        }
        let predicted = analytic_throughput(&self.cfg.env, &req.profile, &refined, &self.state);
        let solo = self.solo_throughput(&req.profile, &refined);
        self.plant(ResidentJob {
            id,
            name: req.name.clone(),
            profile: req.profile.clone(),
            partition: refined,
            mem,
            adaptive: req.adaptive,
            net_bytes_per_sec: net,
            predicted,
            solo,
            arrived_at: self.now,
        });
        self.counters.placed += 1;
        Ok(())
    }

    /// Process one event at time `t`. Events must arrive in
    /// non-decreasing time order; `t` only stamps admissions (no planning
    /// decision reads it).
    pub fn on_event(&mut self, t: f64, ev: &SchedEvent) -> EventOutcome {
        self.now = t;
        self.counters.events += 1;
        let t0 = self.clock.now();
        let mut out = EventOutcome {
            admit: None,
            replan: ReplanStats::default(),
            dequeued: Vec::new(),
            evacuated: Vec::new(),
        };
        match ev {
            SchedEvent::Arrive(req) => {
                if let Err(reason) = validate_size(req.gpus, self.topology()) {
                    self.counters.rejected += 1;
                    out.admit = Some(AdmitOutcome::Rejected(reason));
                } else {
                    let id = JobId(self.next_id);
                    self.next_id += 1;
                    match self.try_place(req, id) {
                        Ok(()) => {
                            let footprint = self
                                .jobs
                                .get(&id)
                                .expect("just planted")
                                .partition
                                .all_workers();
                            out.replan = self.replan_neighborhood(&footprint, Some(id));
                            out.admit = Some(AdmitOutcome::Placed(id));
                        }
                        Err(PlaceFailure::Queue(reason)) => {
                            self.counters.queued += 1;
                            self.queue.push_back((req.clone(), id, reason));
                            out.admit = Some(AdmitOutcome::Queued(id, reason));
                        }
                        Err(PlaceFailure::Reject(reason)) => {
                            self.counters.rejected += 1;
                            out.admit = Some(AdmitOutcome::Rejected(reason));
                        }
                    }
                }
            }
            SchedEvent::Depart(id) => {
                if let Some(job) = self.uproot(*id) {
                    self.counters.completed += 1;
                    let footprint = job.partition.all_workers();
                    out.replan = self.replan_neighborhood(&footprint, None);
                    out.dequeued = self.drain_queue();
                } else if let Some(pos) = self.queue.iter().position(|(_, qid, _)| qid == id) {
                    // Finished (or cancelled) while still waiting.
                    self.queue.remove(pos);
                    self.counters.completed += 1;
                }
            }
            SchedEvent::WorkerFail(g) => {
                self.state.apply(&EventKind::WorkerFail(*g));
                out.evacuated = self.evacuate(*g);
                out.replan = self.replan_neighborhood(&[*g], None);
            }
            SchedEvent::WorkerRecover(g) => {
                self.state.apply(&EventKind::WorkerRecover(*g));
                out.dequeued = self.drain_queue();
                out.replan = self.replan_neighborhood(&[*g], None);
            }
            SchedEvent::LinkFlapDown(s, down_gbps) => {
                self.state.apply(&EventKind::LinkFlapDown(*s, *down_gbps));
                out.replan = self.replan_server(*s);
            }
            SchedEvent::LinkFlapRestore(s) => {
                self.state.apply(&EventKind::LinkFlapRestore(*s));
                out.replan = self.replan_server(*s);
            }
        }
        out.replan.latency_s = (self.clock.now() - t0).as_secs_f64();
        out
    }

    /// Retry queued jobs FIFO; later entries may backfill around an
    /// earlier one that still does not fit. Returns the ids admitted.
    fn drain_queue(&mut self) -> Vec<JobId> {
        let mut admitted = Vec::new();
        let mut still_waiting = VecDeque::new();
        while let Some((req, id, _old_reason)) = self.queue.pop_front() {
            match self.try_place(&req, id) {
                Ok(()) => admitted.push(id),
                Err(PlaceFailure::Queue(reason)) => still_waiting.push_back((req, id, reason)),
                // The cluster shrank (or lost memory) under a queued job:
                // waiting cannot shrink the model, so the rejection is
                // final and the entry is dropped.
                Err(PlaceFailure::Reject(_)) => self.counters.rejected += 1,
            }
        }
        self.queue = still_waiting;
        admitted
    }

    /// Move every job with a worker on the failed GPU onto live GPUs,
    /// re-seeding its partition on the repaired footprint. A job that no
    /// longer fits demotes to the queue.
    fn evacuate(&mut self, failed: GpuId) -> Vec<JobId> {
        let victims: Vec<JobId> = self.index.jobs_on_gpu(failed).collect();
        let mut evacuated = Vec::new();
        for id in victims {
            let Some(job) = self.uproot(id) else { continue };
            let alive = self.state.available_of(&job.partition.all_workers());
            let missing = job.partition.n_workers() - alive.len();
            // Replacement GPUs: least-loaded live devices outside the
            // surviving footprint.
            let replacements =
                least_loaded(&self.index, missing, self.cfg.admission.max_share, |g| {
                    self.state.is_available(g) && !alive.contains(&g)
                });
            let req = JobRequest {
                name: job.name.clone(),
                profile: job.profile.clone(),
                gpus: job.partition.n_workers(),
                adaptive: job.adaptive,
            };
            let Some(replacements) = replacements else {
                self.counters.queued += 1;
                self.queue
                    .push_back((req, id, QueueReason::GpuSharesExhausted));
                continue;
            };
            let mut footprint = alive;
            footprint.extend(replacements);
            footprint.sort();
            let seed = self.seed_partition(&job.profile, &footprint);
            let mut refined = self
                .planner
                .propose(&job.profile, &seed, &self.state, &self.cfg.env);
            let Ok(mem) = self.fit_memory(&job.profile, &mut refined) else {
                // The surviving devices cannot hold the model at any
                // depth; park the job until capacity returns.
                self.counters.queued += 1;
                self.queue
                    .push_back((req, id, QueueReason::GpuSharesExhausted));
                continue;
            };
            let net = self.net_estimate(&job.profile, &refined);
            let predicted = analytic_throughput(&self.cfg.env, &job.profile, &refined, &self.state);
            let solo = self.solo_throughput(&job.profile, &refined);
            self.plant(ResidentJob {
                partition: refined,
                mem,
                net_bytes_per_sec: net,
                predicted,
                solo,
                ..job
            });
            self.counters.evacuated += 1;
            self.counters.placed += 1;
            evacuated.push(id);
        }
        evacuated
    }

    /// Re-plan every job with a worker on `server`.
    fn replan_server(&mut self, server: ServerId) -> ReplanStats {
        let gpus = self.topology().servers[server.0].gpus.clone();
        self.replan_neighborhood(&gpus, None)
    }

    /// Best-response over the contention neighborhood of `seed_gpus`,
    /// rippling at most `max_ripple_rounds` hops; `exclude` (the job the
    /// event just planned) is never re-planned.
    fn replan_neighborhood(&mut self, seed_gpus: &[GpuId], exclude: Option<JobId>) -> ReplanStats {
        let mut frontier = self.index.neighborhood(self.topology(), seed_gpus);
        if let Some(x) = exclude {
            frontier.remove(&x);
        }
        let mut stats = ReplanStats {
            neighborhood: frontier.len(),
            ..ReplanStats::default()
        };
        let mut done: BTreeSet<JobId> = exclude.into_iter().collect();
        for _ in 0..self.cfg.max_ripple_rounds {
            if frontier.is_empty() {
                break;
            }
            let mut next_frontier = BTreeSet::new();
            for id in std::mem::take(&mut frontier) {
                if !done.insert(id) {
                    continue;
                }
                stats.considered += 1;
                self.counters.replans_considered += 1;
                if self.replan_one(id) {
                    stats.moved += 1;
                    self.counters.plans_moved += 1;
                    // The move changes this job's traffic; its own
                    // neighbors become the next ripple hop.
                    let footprint = self.jobs[&id].partition.all_workers();
                    for n in self.index.neighborhood(self.topology(), &footprint) {
                        if !done.contains(&n) {
                            next_frontier.insert(n);
                        }
                    }
                }
            }
            frontier = next_frontier;
        }
        stats
    }

    /// Offer one resident adaptive job a re-plan; keep it only if the
    /// predicted gain clears the priced switch gate. Returns whether the
    /// placement changed.
    fn replan_one(&mut self, id: JobId) -> bool {
        if !self.jobs.get(&id).is_some_and(|j| j.adaptive) {
            return false;
        }
        // The job's view is the live state with the job detached in place;
        // it is restored before the placement changes.
        let (cfg, planner, job) = (&self.cfg, &*self.planner, &self.jobs[&id]);
        let verdict = self
            .state
            .with_detached(Self::bg(id), |view| price_replan(cfg, planner, job, view));
        let (proposal, new_pred) = match verdict {
            Replan::Keep(old_pred) => {
                // Still refresh the cached prediction: the tenancy around
                // the job may have changed even if its plan did not.
                self.jobs.get_mut(&id).expect("resident").predicted = old_pred;
                return false;
            }
            Replan::Move(proposal, new_pred) => (proposal, new_pred),
        };
        let job = self.uproot(id).expect("job is resident");
        let net = self.net_estimate(&job.profile, &proposal);
        let solo = self.solo_throughput(&job.profile, &proposal);
        let mem = mem_check(
            &job.profile,
            &proposal,
            self.cfg.env.schedule,
            &self.cfg.mem_model,
            &self.state,
        );
        self.plant(ResidentJob {
            partition: proposal,
            mem,
            net_bytes_per_sec: net,
            predicted: new_pred,
            solo,
            ..job
        });
        true
    }

    /// Whole-world best-response from the current state: every adaptive
    /// resident job, in id order, repeatedly until a full round keeps
    /// every placement (or `max_rounds` is spent). The baseline that
    /// neighborhood re-planning is measured against. Returns accepted
    /// moves.
    pub fn full_replan(&mut self, max_rounds: usize) -> usize {
        let mut moved = 0;
        for _ in 0..max_rounds {
            let ids: Vec<JobId> = self.jobs.keys().copied().collect();
            let mut changed = false;
            for id in ids {
                self.counters.replans_considered += 1;
                if self.replan_one(id) {
                    self.counters.plans_moved += 1;
                    moved += 1;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        moved
    }

    /// Recompute every resident job's predicted throughput against the
    /// current tenancy and fold the cluster objective. O(jobs) views, each
    /// detached in place — called at reporting points, not per event.
    pub fn objective(&mut self) -> ClusterObjective {
        let ids: Vec<JobId> = self.jobs.keys().copied().collect();
        let mut pairs = Vec::with_capacity(ids.len());
        for id in ids {
            let (env, job) = (&self.cfg.env, &self.jobs[&id]);
            let pred = self.state.with_detached(Self::bg(id), |view| {
                analytic_throughput(env, &job.profile, &job.partition, view)
            });
            let job = self.jobs.get_mut(&id).expect("resident");
            job.predicted = pred;
            pairs.push((pred, job.solo));
        }
        ClusterObjective::from_pairs(&pairs)
    }

    /// Sum of cached per-job predictions (cheap; refreshed on planning
    /// activity, exact after [`ClusterScheduler::objective`]).
    pub fn cached_aggregate(&self) -> f64 {
        self.jobs.values().map(|j| j.predicted).sum()
    }
}

fn analytic_throughput(
    env: &MultiJobEnv,
    profile: &ModelProfile,
    p: &Partition,
    st: &ClusterState,
) -> f64 {
    let model = AnalyticModel {
        profile,
        scheme: env.scheme,
        framework: env.framework,
        schedule: env.schedule,
        calibration: None,
    };
    model.throughput(p, st)
}

/// Price a re-plan of `job` against `view`, the live state with the job
/// detached.
fn price_replan(
    cfg: &SchedConfig,
    planner: &dyn ProposePlan,
    job: &ResidentJob,
    view: &ClusterState,
) -> Replan {
    let (profile, current) = (&job.profile, &job.partition);
    let old_pred = analytic_throughput(&cfg.env, profile, current, view);
    let mut proposal = planner.propose(profile, current, view, &cfg.env);
    // A proposal the devices cannot hold at any stash depth is not a
    // move candidate; keep the (already fitting) current plan.
    let fits = clamp_in_flight(
        profile,
        &mut proposal,
        cfg.env.schedule,
        &cfg.mem_model,
        view,
    )
    .is_some();
    if !fits || proposal == *current {
        return Replan::Keep(old_pred);
    }
    let new_pred = analytic_throughput(&cfg.env, profile, &proposal, view);
    let switch = SwitchPlan::between(current, &proposal, profile, cfg.env.schedule);
    let cost_s = switch.raw_transfer_time(view);
    let gain = new_pred / old_pred.max(1e-9) - 1.0;
    let required = cfg.switch_gate + cost_s / cfg.switch_horizon_s.max(1e-9);
    if gain <= required {
        return Replan::Keep(old_pred);
    }
    Replan::Move(proposal, new_pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_cluster::GpuKind;
    use ap_models::{synthetic_skewed, synthetic_uniform, ModelProfile};
    use ap_resilience::FakeClock;

    /// A planner that keeps the seed partition (pure PipeDream).
    struct Keep;
    impl ProposePlan for Keep {
        fn propose(
            &self,
            _profile: &ModelProfile,
            current: &Partition,
            _state: &ClusterState,
            _env: &MultiJobEnv,
        ) -> Partition {
            current.clone()
        }
    }

    fn sched() -> ClusterScheduler {
        let topo = ClusterTopology::single_switch(4, 2, GpuKind::P100, 25.0);
        ClusterScheduler::new(
            topo,
            SchedConfig::default(),
            Box::new(Keep),
            Arc::new(FakeClock::new()),
        )
    }

    fn req(gpus: usize) -> JobRequest {
        JobRequest {
            name: "synthetic".to_string(),
            profile: ModelProfile::with_batch(&synthetic_skewed(8, 2e9, 20e6, 8e6), 32),
            gpus,
            adaptive: true,
        }
    }

    #[test]
    fn arrival_places_and_departure_frees() {
        let mut s = sched();
        let out = s.on_event(0.0, &SchedEvent::Arrive(req(4)));
        let AdmitOutcome::Placed(id) = out.admit.expect("arrival outcome") else {
            panic!("expected placement");
        };
        assert_eq!(s.n_resident(), 1);
        assert!(s.job(id).expect("resident").predicted > 0.0);
        let out = s.on_event(1.0, &SchedEvent::Depart(id));
        assert!(out.admit.is_none());
        assert_eq!(s.n_resident(), 0);
        assert_eq!(s.counters().completed, 1);
    }

    #[test]
    fn oversized_requests_are_rejected_with_reason() {
        let mut s = sched();
        let out = s.on_event(0.0, &SchedEvent::Arrive(req(9)));
        assert_eq!(
            out.admit,
            Some(AdmitOutcome::Rejected(RejectReason::LargerThanCluster {
                wanted: 9,
                cluster: 8
            }))
        );
        let out = s.on_event(0.0, &SchedEvent::Arrive(req(0)));
        assert_eq!(
            out.admit,
            Some(AdmitOutcome::Rejected(RejectReason::ZeroGpus))
        );
        assert_eq!(s.counters().rejected, 2);
    }

    #[test]
    fn exhausted_shares_queue_then_drain_on_departure() {
        let mut s = sched();
        s.cfg.admission.max_share = 1;
        let AdmitOutcome::Placed(first) = s
            .on_event(0.0, &SchedEvent::Arrive(req(8)))
            .admit
            .expect("outcome")
        else {
            panic!("first job fills the cluster");
        };
        let out = s.on_event(1.0, &SchedEvent::Arrive(req(2)));
        let Some(AdmitOutcome::Queued(qid, QueueReason::GpuSharesExhausted)) = out.admit else {
            panic!("second job must queue, got {:?}", out.admit);
        };
        assert_eq!(s.n_queued(), 1);
        let out = s.on_event(2.0, &SchedEvent::Depart(first));
        assert_eq!(out.dequeued, vec![qid], "departure drains the queue");
        assert_eq!(s.n_resident(), 1);
        assert_eq!(s.n_queued(), 0);
    }

    #[test]
    fn worker_failure_evacuates_the_victim() {
        let mut s = sched();
        let AdmitOutcome::Placed(id) = s
            .on_event(0.0, &SchedEvent::Arrive(req(2)))
            .admit
            .expect("outcome")
        else {
            panic!("placement");
        };
        let victim_gpu = s.job(id).expect("resident").partition.all_workers()[0];
        let out = s.on_event(1.0, &SchedEvent::WorkerFail(victim_gpu));
        assert_eq!(out.evacuated, vec![id]);
        let footprint = s.job(id).expect("still resident").partition.all_workers();
        assert!(
            !footprint.contains(&victim_gpu),
            "evacuated footprint {footprint:?} must avoid the dead gpu"
        );
        assert_eq!(footprint.len(), 2, "same size after evacuation");
    }

    #[test]
    fn departing_a_queued_job_removes_it() {
        let mut s = sched();
        s.cfg.admission.max_share = 1;
        let _ = s.on_event(0.0, &SchedEvent::Arrive(req(8)));
        let Some(AdmitOutcome::Queued(qid, _)) = s.on_event(1.0, &SchedEvent::Arrive(req(1))).admit
        else {
            panic!("queues");
        };
        s.on_event(2.0, &SchedEvent::Depart(qid));
        assert_eq!(s.n_queued(), 0);
        assert_eq!(s.counters().completed, 1);
    }

    #[test]
    fn memory_infeasible_requests_are_rejected_with_deficit() {
        let mut s = sched();
        // 20 GB of parameters per layer: no stash depth fits a P100.
        let giant = JobRequest {
            name: "giant".to_string(),
            profile: ModelProfile::with_batch(&synthetic_uniform(8, 2e9, 20e6, 20e9), 32),
            gpus: 4,
            adaptive: true,
        };
        let out = s.on_event(0.0, &SchedEvent::Arrive(giant));
        let Some(AdmitOutcome::Rejected(reason)) = out.admit else {
            panic!("expected a rejection, got {:?}", out.admit);
        };
        assert_eq!(reason.id(), "memory-infeasible");
        let RejectReason::MemoryInfeasible { deficit_bytes } = reason else {
            panic!("wrong reason {reason:?}");
        };
        assert!(deficit_bytes > 0);
        assert_eq!(s.counters().rejected, 1);
        assert_eq!(s.n_resident(), 0);
    }

    #[test]
    fn placed_jobs_carry_a_fitting_memory_check() {
        let mut s = sched();
        let out = s.on_event(0.0, &SchedEvent::Arrive(req(4)));
        let Some(AdmitOutcome::Placed(id)) = out.admit else {
            panic!("placement");
        };
        let job = s.job(id).expect("resident");
        assert_eq!(job.mem.stages.len(), job.partition.n_stages());
        assert!(job.mem.fits(), "planted plans always fit: {:?}", job.mem);
    }

    #[test]
    fn unknown_departure_is_a_no_op() {
        let mut s = sched();
        let before = s.counters().events;
        let out = s.on_event(0.0, &SchedEvent::Depart(JobId(77)));
        assert!(out.admit.is_none());
        assert_eq!(s.counters().completed, 0);
        assert_eq!(s.counters().events, before + 1);
    }

    #[test]
    fn fork_is_an_independent_replica() {
        let mut s = sched();
        let _ = s.on_event(0.0, &SchedEvent::Arrive(req(4)));
        let mut f = s.fork(Box::new(Keep));
        assert_eq!(f.n_resident(), s.n_resident());
        let _ = f.on_event(1.0, &SchedEvent::Arrive(req(2)));
        assert_eq!(f.n_resident(), 2);
        assert_eq!(s.n_resident(), 1, "the original is untouched");
    }

    #[test]
    fn objective_covers_all_residents() {
        let mut s = sched();
        let _ = s.on_event(0.0, &SchedEvent::Arrive(req(2)));
        let _ = s.on_event(1.0, &SchedEvent::Arrive(req(2)));
        let o = s.objective();
        assert_eq!(o.jobs, 2);
        assert!(o.aggregate > 0.0);
        assert!(o.fairness_floor > 0.0 && o.fairness_floor <= 1.0);
        assert!(s.cached_aggregate() > 0.0);
    }
}
