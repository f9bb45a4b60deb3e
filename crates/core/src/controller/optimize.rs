//! Steady-state optimization built from the [`MoveEnumerator`] and
//! [`Scorer`] stages: the greedy refinement loop shared by the live
//! controller, the static planners and the multi-job best-response
//! dynamics ([`HillClimbPlanner`]).

use std::collections::VecDeque;

use ap_cluster::{ClusterState, GpuId};
use ap_models::ModelProfile;
use ap_pipesim::{AnalyticModel, Partition};
use ap_planner::sort_stage_workers_by;
use ap_sched::tenancy::{MultiJobEnv, ProposePlan};

use super::enumerate::MoveEnumerator;
use super::score::{ScoreCtx, Scorer};

/// What a greedy refinement found.
#[derive(Debug, Clone)]
pub struct Refined {
    /// The refined partition.
    pub partition: Partition,
    /// Its score.
    pub score: f64,
    /// The starting partition's score.
    pub start_score: f64,
    /// Rounds that scored a non-empty neighborhood.
    pub rounds: usize,
    /// Candidates scored across those rounds.
    pub scored: usize,
    /// `stop` ended the loop before a round.
    pub stopped: bool,
}

/// Greedy refinement, the one loop every planner runs: chain incremental
/// moves from `start`, each round scoring the whole neighborhood
/// (`degraded` as in [`MoveEnumerator::candidates`]) and building only the
/// best move, until no candidate beats the incumbent (beyond float
/// noise), `max_rounds` is exhausted, or `stop` returns true before a
/// round (a planning deadline).
pub fn refine(
    enumerator: &MoveEnumerator,
    scorer: &Scorer,
    ctx: &ScoreCtx<'_>,
    start: Partition,
    degraded: &[GpuId],
    max_rounds: usize,
    stop: impl Fn() -> bool,
) -> Refined {
    let start_score = scorer.predict(ctx, &start);
    let mut out = Refined {
        partition: start,
        score: start_score,
        start_score,
        rounds: 0,
        scored: 0,
        stopped: false,
    };
    for _ in 0..max_rounds {
        if stop() {
            out.stopped = true;
            break;
        }
        let moves = enumerator.candidates(&out.partition, ctx.model.profile, degraded);
        if moves.is_empty() {
            break;
        }
        out.rounds += 1;
        out.scored += moves.len();
        match scorer.best(ctx, &out.partition, &moves) {
            Some((score, mv)) if score > out.score * (1.0 + 1e-9) => {
                out.partition = mv.apply(&out.partition);
                out.score = score;
            }
            _ => break,
        }
    }
    out
}

/// Greedy hill-climbing with two-worker moves under the analytic model:
/// AutoPipe's steady-state optimizer, used for the static experiments.
/// A thin composition of [`MoveEnumerator`] and [`Scorer::Analytic`] over
/// [`refine`].
pub fn hill_climb(
    model: &AnalyticModel<'_>,
    start: Partition,
    state: &ClusterState,
    max_rounds: usize,
) -> Partition {
    let mut current = start;
    // Group replicas by effective speed so split moves can isolate
    // stragglers (order within a stage has no execution semantics).
    sort_stage_workers_by(&mut current, |g| state.effective_flops(g));
    let history = VecDeque::new();
    let ctx = ScoreCtx {
        model: *model,
        history: &history,
        state,
    };
    refine(
        &MoveEnumerator::new(),
        &Scorer::Analytic,
        &ctx,
        current,
        &[],
        max_rounds,
        || false,
    )
    .partition
}

/// The controller's per-job proposal for multi-job tenancy
/// ([`ap_sched::tenancy::best_response_rounds`] and the cluster
/// scheduler): [`hill_climb`] under the analytic model, scored against the
/// state the rest of the tenancy induces.
#[derive(Debug, Clone, Copy)]
pub struct HillClimbPlanner {
    /// Hill-climb round budget per proposal.
    pub rounds: usize,
}

impl Default for HillClimbPlanner {
    fn default() -> Self {
        HillClimbPlanner { rounds: 20 }
    }
}

impl ProposePlan for HillClimbPlanner {
    fn propose(
        &self,
        profile: &ModelProfile,
        current: &Partition,
        state: &ClusterState,
        env: &MultiJobEnv,
    ) -> Partition {
        let model = AnalyticModel {
            profile,
            scheme: env.scheme,
            framework: env.framework,
            schedule: env.schedule,
            calibration: None,
        };
        hill_climb(&model, current.clone(), state, self.rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_cluster::gpu::GpuKind;
    use ap_cluster::{ClusterTopology, GpuId};
    use ap_models::resnet50;
    use ap_planner::{pipedream_plan, PipeDreamView};
    use ap_sched::tenancy::{best_response_rounds, evaluate, JobSpec};

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

    fn rounds(jobs: &mut [JobSpec], max_rounds: usize) -> usize {
        let env = MultiJobEnv::default();
        best_response_rounds(
            &testbed(),
            jobs,
            &env,
            max_rounds,
            &HillClimbPlanner::default(),
        )
        .expect("best response")
    }

    #[test]
    fn all_autopipe_tenancy_beats_all_static() {
        let topo = testbed();
        let env = MultiJobEnv::default();
        let static_jobs = vec![static_job(false), static_job(false), static_job(false)];
        let before = evaluate(&topo, &static_jobs, &env).expect("static tenancy");

        let mut adaptive_jobs = vec![static_job(true), static_job(true), static_job(true)];
        let changes = rounds(&mut adaptive_jobs, 4);
        let after = evaluate(&topo, &adaptive_jobs, &env).expect("adaptive tenancy");
        assert!(
            after.total >= before.total,
            "coordinated tenancy must not lose: {:.1} -> {:.1} ({} changes)",
            before.total,
            after.total,
            changes
        );
    }

    #[test]
    fn best_response_terminates_at_a_fixed_point() {
        let mut jobs = vec![static_job(true), static_job(true)];
        let _ = rounds(&mut jobs, 6);
        // Re-running from the fixed point changes nothing.
        assert_eq!(rounds(&mut jobs, 3), 0);
    }
}
