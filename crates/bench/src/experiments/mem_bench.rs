//! `repro mem-bench` — memory-aware planning on rich vs starved clusters.
//!
//! The drill prices a BERT-48 pipeline (4 stages, 1 GPU each) with the
//! [`ap_mem`] planning model and sweeps per-GPU memory capacity from
//! comfortably rich down to hopeless, asking [`ap_mem::fit_schedule`] to
//! fit a deep PipeDream-async request at every point. The ladder is
//! self-calibrating — rungs are placed relative to the model's own
//! requirements — so the expected flips are structural, not tuned:
//!
//! * **rich** (above the deep-async requirement): the request is kept
//!   verbatim — deep weight stashing is the throughput-optimal choice
//!   when memory is free.
//! * **mid** (between the depth-1 and deep requirement): same schedule,
//!   clamped to a shallower in-flight depth.
//! * **starved** (below even depth-1 async): the stash cannot fit at any
//!   depth, so the planner *switches schedule* to a flatter-memory
//!   alternative (GPipe's recompute discard or 2BW's two flat versions).
//! * **hopeless** (below half the flattest schedule's floor): nothing
//!   fits and the planner says so instead of emitting an OOM plan.
//!
//! Real GPU tiers (A100/V100/P100) ride along as ungated reference rows.
//! Everything is closed-form arithmetic — no wall clocks, no threads — so
//! the report is byte-identical across runs.

use ap_cluster::gpu::GpuKind;
use ap_cluster::{ClusterState, ClusterTopology, GpuId};
use ap_mem::{check, fit_schedule, footprint, MemoryModel};
use ap_models::{bert48, ModelProfile};
use ap_pipesim::{AnalyticModel, Framework, Partition, ScheduleKind, SyncScheme};
use ap_planner::uniform_plan;

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
const N_STAGES: usize = 4;
const BATCH: usize = 32;
const LINK_GBPS: f64 = 25.0;
/// The (deliberately deep) stash depth every cell requests.
const REQUESTED_IN_FLIGHT: usize = 8;

/// One stage's modeled demand vs the capacity it landed on.
#[derive(Debug, Clone)]
pub struct StageMemRow {
    pub stage: usize,
    pub required_gb: f64,
    pub capacity_gb: f64,
    pub fits: bool,
}

/// One capacity rung of the sweep.
#[derive(Debug, Clone)]
pub struct MemBenchCell {
    /// Rung label (`rich`, `mid`, `starved`, `hopeless`, or a GPU tier).
    pub cluster: String,
    /// Uniform per-GPU capacity at this rung, GiB.
    pub capacity_gb: f64,
    /// Whether any (schedule, depth) fits.
    pub feasible: bool,
    /// Winning schedule id (`-` when infeasible).
    pub chosen: String,
    /// Winning in-flight depth (0 when infeasible).
    pub in_flight: usize,
    /// True when the requested schedule had to be abandoned to fit.
    pub switched: bool,
    /// Analytic throughput of the winning config, samples/s.
    pub predicted: f64,
    /// Worst per-stage overshoot of the *requested* config at this rung,
    /// GiB (why the clamp/switch happened; 0 when the request fits).
    pub requested_deficit_gb: f64,
    /// The winning config's per-stage demand vs capacity (the requested
    /// config's, when nothing fits).
    pub stages: Vec<StageMemRow>,
}

/// The whole sweep plus the gates `repro` enforces.
#[derive(Debug, Clone)]
pub struct MemBenchResult {
    pub mode: String,
    pub model: String,
    pub batch: usize,
    pub n_stages: usize,
    pub requested: String,
    pub requested_in_flight: usize,
    pub cells: Vec<MemBenchCell>,
}

impl MemBenchResult {
    fn cell(&self, name: &str) -> Option<&MemBenchCell> {
        self.cells.iter().find(|c| c.cluster == name)
    }

    /// Every gate of the experiment:
    /// * no feasible cell places a stage over its device capacity;
    /// * `rich` keeps the requested schedule at the requested depth;
    /// * `mid` keeps the schedule but clamps the depth;
    /// * `starved` switches schedule (and still fits);
    /// * `hopeless` is reported infeasible rather than over-packed;
    /// * the schedule choice actually flips across the ladder.
    pub fn all_ok(&self) -> bool {
        let stages_fit = self
            .cells
            .iter()
            .filter(|c| c.feasible)
            .all(|c| c.stages.iter().all(|s| s.fits) && c.predicted > 0.0);
        let (Some(rich), Some(mid), Some(starved), Some(hopeless)) = (
            self.cell("rich"),
            self.cell("mid"),
            self.cell("starved"),
            self.cell("hopeless"),
        ) else {
            return false;
        };
        stages_fit
            && rich.feasible
            && !rich.switched
            && rich.in_flight == self.requested_in_flight
            && mid.feasible
            && !mid.switched
            && mid.in_flight < self.requested_in_flight
            && starved.feasible
            && starved.switched
            && !hopeless.feasible
            && rich.chosen != starved.chosen
    }
}

fn topology() -> ClusterTopology {
    ClusterTopology::single_switch(N_STAGES, 1, GpuKind::A100, LINK_GBPS)
}

/// Worst per-stage per-worker requirement of `kind` at `in_flight`, bytes.
fn peak_requirement(profile: &ModelProfile, partition: &Partition, kind: ScheduleKind) -> f64 {
    footprint(profile, partition, kind, &MemoryModel::default())
        .iter()
        .zip(&partition.stages)
        .map(|(f, st)| f.per_worker(st.workers.len()))
        .fold(0.0, f64::max)
}

fn run_cell(
    label: &str,
    capacity_bytes: f64,
    profile: &ModelProfile,
    partition: &Partition,
) -> MemBenchCell {
    let mut topo = topology();
    topo.set_uniform_memory_bytes(capacity_bytes);
    let state = ClusterState::new(topo);
    let model = MemoryModel::default();
    let score = |kind: ScheduleKind, n: usize| {
        let mut p = partition.clone();
        p.in_flight = n;
        AnalyticModel {
            profile,
            scheme: SyncScheme::RingAllReduce,
            framework: Framework::pytorch(),
            schedule: kind,
            calibration: None,
        }
        .throughput(&p, &state)
    };
    let requested = check(
        profile,
        partition,
        ScheduleKind::PipeDreamAsync,
        &model,
        &state,
    );
    let outcome = fit_schedule(
        profile,
        partition,
        ScheduleKind::PipeDreamAsync,
        &model,
        &state,
        &score,
    );
    let (feasible, chosen, in_flight, switched, predicted, mem) = match outcome {
        Some(o) => (
            true,
            o.kind.id().to_string(),
            o.in_flight,
            o.switched,
            score(o.kind, o.in_flight),
            o.check,
        ),
        None => (false, "-".to_string(), 0, false, 0.0, requested.clone()),
    };
    MemBenchCell {
        cluster: label.to_string(),
        capacity_gb: capacity_bytes / GIB,
        feasible,
        chosen,
        in_flight,
        switched,
        predicted,
        requested_deficit_gb: requested.worst_deficit() / GIB,
        stages: mem
            .stages
            .iter()
            .map(|s| StageMemRow {
                stage: s.stage,
                required_gb: s.required / GIB,
                capacity_gb: s.capacity / GIB,
                fits: s.fits(),
            })
            .collect(),
    }
}

/// Run the sweep. `smoke` only changes the reported mode string — the
/// computation is closed-form and already deterministic.
pub fn run(smoke: bool) -> MemBenchResult {
    let profile = ModelProfile::with_batch(&bert48(), BATCH);
    let gpus: Vec<GpuId> = (0..topology().n_gpus()).map(GpuId).collect();
    let mut partition = uniform_plan(&profile, N_STAGES, &gpus);
    partition.in_flight = REQUESTED_IN_FLIGHT;

    // Self-calibrating rungs: placed relative to the model's own needs so
    // the expected flips are structural, not tuned constants.
    let deep = peak_requirement(&profile, &partition, ScheduleKind::PipeDreamAsync);
    let shallow = {
        let mut p = partition.clone();
        p.in_flight = 1;
        peak_requirement(&profile, &p, ScheduleKind::PipeDreamAsync)
    };
    let floor = {
        let mut p = partition.clone();
        p.in_flight = 1;
        ScheduleKind::zoo()
            .into_iter()
            .map(|k| peak_requirement(&profile, &p, k))
            .fold(f64::INFINITY, f64::min)
    };
    let ladder: Vec<(String, f64)> = vec![
        ("rich".into(), deep * 1.10),
        ("mid".into(), (shallow + deep) / 2.0),
        ("starved".into(), shallow * 0.98),
        ("hopeless".into(), floor * 0.50),
        ("a100-40g".into(), GpuKind::A100.memory_bytes()),
        ("v100-32g".into(), GpuKind::V100.memory_bytes()),
        ("p100-16g".into(), GpuKind::P100.memory_bytes()),
    ];
    let cells = ladder
        .iter()
        .map(|(label, cap)| run_cell(label, *cap, &profile, &partition))
        .collect();
    MemBenchResult {
        mode: if smoke { "smoke" } else { "full" }.into(),
        model: profile.name.clone(),
        batch: BATCH,
        n_stages: N_STAGES,
        requested: ScheduleKind::PipeDreamAsync.id().to_string(),
        requested_in_flight: REQUESTED_IN_FLIGHT,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_upholds_every_gate() {
        let r = run(true);
        assert_eq!(r.cells.len(), 7);
        assert!(r.all_ok(), "gates violated: {r:#?}");
    }

    #[test]
    fn schedule_choice_flips_with_capacity() {
        let r = run(true);
        let rich = r.cells.iter().find(|c| c.cluster == "rich").unwrap();
        let starved = r.cells.iter().find(|c| c.cluster == "starved").unwrap();
        assert_eq!(rich.chosen, "pipedream_async");
        assert_ne!(starved.chosen, "pipedream_async");
        assert!(starved.requested_deficit_gb > 0.0);
    }

    #[test]
    fn report_is_deterministic_across_runs() {
        let a = format!("{:?}", run(true));
        let b = format!("{:?}", run(true));
        assert_eq!(a, b);
    }
}
