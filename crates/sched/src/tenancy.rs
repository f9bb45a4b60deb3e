//! Multiple AutoPipe jobs sharing one cluster: the per-job planning
//! primitive of the control plane.
//!
//! §1 of the paper: "we also observe that our RL-based solution can further
//! improve the overall training performance when AutoPipe is deployed on
//! multiple jobs." This module models that deployment: every job sees a
//! cluster state *induced* by the other jobs' placements (GPU time-slicing
//! where footprints overlap, link bandwidth consumed by their
//! communication), and AutoPipe jobs adapt to each other by best-response
//! rounds — job by job, re-partitioning against the state the rest of the
//! tenancy induces, until a fixed point (or a round budget) is reached.
//!
//! The per-job re-partition proposal is abstracted behind [`ProposePlan`]
//! so this crate does not depend on the controller: `autopipe` implements
//! the trait with its move-enumerating, analytically scored hill climb
//! (`autopipe::HillClimbPlanner`), which both [`best_response_rounds`] and
//! [`crate::ClusterScheduler`]'s event loop drive.

use ap_cluster::dynamics::BgJobId;
use ap_cluster::{ClusterState, ClusterTopology, EventKind, ResourceTimeline};
use ap_models::ModelProfile;
use ap_pipesim::{
    AnalyticModel, Engine, EngineConfig, Framework, Partition, ScheduleKind, SimError, SyncScheme,
};

/// A per-job re-partition proposal: given the job's profile, its current
/// partition and the cluster state the rest of the tenancy induces,
/// return a (hopefully better) partition over the same workers. The
/// implementation decides how hard to search; returning `current`
/// unchanged is always legal.
pub trait ProposePlan {
    /// Propose a re-partition for one job against `state`.
    fn propose(
        &self,
        profile: &ModelProfile,
        current: &Partition,
        state: &ClusterState,
        env: &MultiJobEnv,
    ) -> Partition;
}

/// One tenant of the shared cluster.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The job's model profile.
    pub profile: ModelProfile,
    /// Its current work partition (workers are cluster GPU ids; jobs may
    /// overlap — overlapping GPUs are time-sliced).
    pub partition: Partition,
    /// Whether this job runs AutoPipe (adapts) or a static plan.
    pub adaptive: bool,
}

/// Shared workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct MultiJobEnv {
    /// Gradient sync scheme for every job.
    pub scheme: SyncScheme,
    /// Framework constants.
    pub framework: Framework,
    /// Pipeline schedule.
    pub schedule: ScheduleKind,
}

impl Default for MultiJobEnv {
    fn default() -> Self {
        MultiJobEnv {
            scheme: SyncScheme::RingAllReduce,
            framework: Framework::pytorch(),
            schedule: ScheduleKind::PipeDreamAsync,
        }
    }
}

/// Estimated bytes/second of network traffic a job pushes through its
/// servers' links: activation + gradient tensors across every stage cut
/// plus gradient-sync volume, per steady-state iteration.
pub fn comm_bytes_per_sec(
    profile: &ModelProfile,
    partition: &Partition,
    state: &ClusterState,
    env: &MultiJobEnv,
) -> f64 {
    let model = AnalyticModel {
        profile,
        scheme: env.scheme,
        framework: env.framework,
        schedule: env.schedule,
        calibration: None,
    };
    let eval = model.evaluate(partition, state);
    let cut_bytes: f64 = partition
        .cut_layers()
        .iter()
        .map(|&c| 2.0 * profile.cut_bytes(c))
        .sum();
    let sync_bytes: f64 = partition
        .stages
        .iter()
        .filter(|s| s.workers.len() > 1)
        .map(|s| 2.0 * profile.range_params(s.layers.start, s.layers.end))
        .sum();
    (cut_bytes + sync_bytes) / eval.iteration_time.max(1e-9)
}

/// The cluster state job `me` experiences, given everyone else's placement.
pub fn induced_state(
    topo: &ClusterTopology,
    jobs: &[JobSpec],
    me: usize,
    env: &MultiJobEnv,
) -> ClusterState {
    let mut st = ClusterState::new(topo.clone());
    for (k, job) in jobs.iter().enumerate() {
        if k == me {
            continue;
        }
        // Their comm load is estimated against an otherwise-exclusive
        // cluster; good enough as a first-order induced load.
        let net = comm_bytes_per_sec(&job.profile, &job.partition, &st, env)
            / job.partition.n_workers().max(1) as f64;
        st.apply(&EventKind::JobArrive {
            id: BgJobId(1_000 + k as u64),
            gpus: job.partition.all_workers(),
            net_bytes_per_sec: net,
        });
    }
    st
}

/// Measured (event-engine) throughput of every job under the tenancy's
/// current placements. Fails if any job's partition is invalid or its
/// pipeline cannot make progress under the induced contention.
pub fn evaluate(
    topo: &ClusterTopology,
    jobs: &[JobSpec],
    env: &MultiJobEnv,
) -> Result<MultiJobOutcome, SimError> {
    let per_job: Vec<f64> = (0..jobs.len())
        .map(|j| {
            let st = induced_state(topo, jobs, j, env);
            let n = (3 * jobs[j].partition.in_flight).max(20);
            Ok(Engine::new(
                &jobs[j].profile,
                jobs[j].partition.clone(),
                st,
                ResourceTimeline::empty(),
                EngineConfig {
                    scheme: env.scheme,
                    framework: env.framework,
                    schedule: env.schedule,
                    record_timeline: false,
                    calibration: None,
                },
            )?
            .run(n)?
            .steady_throughput(n / 3))
        })
        .collect::<Result<_, SimError>>()?;
    Ok(MultiJobOutcome {
        total: per_job.iter().sum(),
        per_job,
    })
}

/// Aggregate outcome of a tenancy.
#[derive(Debug, Clone)]
pub struct MultiJobOutcome {
    /// Samples/sec per job.
    pub per_job: Vec<f64>,
    /// Sum over jobs.
    pub total: f64,
}

/// Coordinated adaptation: round-robin over the adaptive jobs; each
/// proposes a re-partition via `planner` (scored against the state the
/// rest of the tenancy induces), and the proposal is **accepted only if
/// the measured tenancy-wide throughput improves** — the fleet-level
/// reward of the paper's multi-job deployment. A purely selfish best
/// response can lose total throughput to congestion externalities (one
/// job grabbing bandwidth slows two others more); verifying the global
/// reward prevents that. Stops early once a full round changes nothing.
/// Returns the number of plan changes kept.
pub fn best_response_rounds(
    topo: &ClusterTopology,
    jobs: &mut [JobSpec],
    env: &MultiJobEnv,
    max_rounds: usize,
    planner: &dyn ProposePlan,
) -> Result<usize, SimError> {
    let mut changes = 0usize;
    let mut current_total = evaluate(topo, jobs, env)?.total;
    for _ in 0..max_rounds {
        let mut changed_this_round = false;
        for j in 0..jobs.len() {
            if !jobs[j].adaptive {
                continue;
            }
            let st = induced_state(topo, jobs, j, env);
            let better = planner.propose(&jobs[j].profile, &jobs[j].partition, &st, env);
            if better == jobs[j].partition {
                continue;
            }
            // Tentatively apply; keep only if the fleet-level reward rises.
            let old = std::mem::replace(&mut jobs[j].partition, better);
            let new_total = evaluate(topo, jobs, env)?.total;
            if new_total > current_total * 1.005 {
                current_total = new_total;
                changes += 1;
                changed_this_round = true;
            } else {
                jobs[j].partition = old;
            }
        }
        if !changed_this_round {
            break;
        }
    }
    Ok(changes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_cluster::gpu::GpuKind;
    use ap_cluster::GpuId;
    use ap_models::resnet50;
    use ap_planner::{pipedream_plan, PipeDreamView};

    /// A planner that never moves: best-response must terminate with zero
    /// changes under it.
    struct Noop;
    impl ProposePlan for Noop {
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

    fn testbed() -> ClusterTopology {
        ClusterTopology::single_switch(5, 2, GpuKind::P100, 25.0)
    }

    fn static_job(adaptive: bool) -> JobSpec {
        let profile = ModelProfile::of(&resnet50());
        let gpus: Vec<GpuId> = (0..10).map(GpuId).collect();
        let partition = pipedream_plan(
            &profile,
            &gpus,
            PipeDreamView {
                bandwidth: ap_cluster::gbps(25.0),
                gpu_flops: GpuKind::P100.peak_flops(),
            },
        );
        JobSpec {
            profile,
            partition,
            adaptive,
        }
    }

    #[test]
    fn induced_state_reflects_other_tenants() {
        let topo = testbed();
        let jobs = vec![static_job(false), static_job(false), static_job(false)];
        let env = MultiJobEnv::default();
        let st = induced_state(&topo, &jobs, 0, &env);
        // Two other whole-cluster jobs: every GPU 3-way shared.
        assert!(st.topology.gpus.iter().all(|g| g.colocated_jobs >= 2));
        // And their traffic consumes link bandwidth.
        let cap = st.available_capacity(ap_cluster::LinkId::Up(ap_cluster::ServerId(0)));
        assert!(cap < ap_cluster::gbps(25.0));
    }

    #[test]
    fn comm_estimate_positive_and_scales_with_cuts() {
        let env = MultiJobEnv::default();
        let topo = testbed();
        let st = ClusterState::new(topo);
        let job = static_job(false);
        let c = comm_bytes_per_sec(&job.profile, &job.partition, &st, &env);
        assert!(c > 0.0);
        // A single-stage plan with one worker communicates nothing.
        let lonely = Partition::single_stage(job.profile.n_layers(), vec![GpuId(0)]);
        assert_eq!(comm_bytes_per_sec(&job.profile, &lonely, &st, &env), 0.0);
    }

    #[test]
    fn noop_planner_is_a_fixed_point() {
        let topo = testbed();
        let env = MultiJobEnv::default();
        let mut jobs = vec![static_job(true), static_job(true)];
        let changes = best_response_rounds(&topo, &mut jobs, &env, 4, &Noop).expect("rounds");
        assert_eq!(changes, 0, "a planner that never moves never changes");
    }

    #[test]
    fn non_adaptive_jobs_are_never_consulted() {
        struct Panicky;
        impl ProposePlan for Panicky {
            fn propose(
                &self,
                _profile: &ModelProfile,
                _current: &Partition,
                _state: &ClusterState,
                _env: &MultiJobEnv,
            ) -> Partition {
                panic!("static jobs must not be re-planned")
            }
        }
        let topo = testbed();
        let env = MultiJobEnv::default();
        let mut jobs = vec![static_job(false), static_job(false)];
        let changes = best_response_rounds(&topo, &mut jobs, &env, 4, &Panicky).expect("rounds");
        assert_eq!(changes, 0);
    }
}
