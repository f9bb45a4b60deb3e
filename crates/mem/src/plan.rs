//! Memory-aware planning: capacity checks, in-flight clamping, schedule
//! switching.
//!
//! Capacity comes from the *live* cluster view
//! ([`ap_cluster::ClusterState::memory_bytes`]): per-device overrides make
//! heterogeneous-memory clusters expressible and failed workers report
//! zero, so a plan that leans on a dead device is memory-infeasible by
//! construction. When a requested schedule cannot fit, [`fit_schedule`]
//! walks the alternatives the paper's ecosystem offers — shallower
//! in-flight depth, PipeDream-2BW's two flat weight versions, GPipe's
//! activation recompute — and picks the feasible candidate the caller
//! scores highest (typically analytic throughput): recompute on
//! memory-starved clusters, deeper in-flight or 2BW on rich ones.

use ap_cluster::ClusterState;
use ap_models::ModelProfile;
use ap_pipesim::{Partition, ScheduleKind};

use crate::footprint::{footprint, MemoryModel};

/// One stage's demand vs the tightest device it is placed on.
#[derive(Debug, Clone)]
pub struct StageMemCheck {
    /// Stage index.
    pub stage: usize,
    /// Modeled per-worker high-water bytes.
    pub required: f64,
    /// Smallest capacity among the stage's workers (0 for failed workers).
    pub capacity: f64,
}

impl StageMemCheck {
    /// How far over budget the stage is (0 when it fits).
    pub fn deficit(&self) -> f64 {
        (self.required - self.capacity).max(0.0)
    }

    /// Whether the stage fits its tightest device.
    pub fn fits(&self) -> bool {
        self.required <= self.capacity
    }
}

/// A full partition-vs-cluster memory check.
#[derive(Debug, Clone)]
pub struct MemCheck {
    /// Per-stage demand vs capacity.
    pub stages: Vec<StageMemCheck>,
}

impl MemCheck {
    /// Every stage fits its devices.
    pub fn fits(&self) -> bool {
        self.stages.iter().all(StageMemCheck::fits)
    }

    /// Largest per-stage deficit, bytes.
    pub fn worst_deficit(&self) -> f64 {
        self.stages
            .iter()
            .map(StageMemCheck::deficit)
            .fold(0.0, f64::max)
    }
}

/// Check `partition` under `kind` against the live cluster capacities.
pub fn check(
    profile: &ModelProfile,
    partition: &Partition,
    kind: ScheduleKind,
    model: &MemoryModel,
    state: &ClusterState,
) -> MemCheck {
    let foots = footprint(profile, partition, kind, model);
    let stages = foots
        .iter()
        .zip(&partition.stages)
        .map(|(f, st)| {
            let capacity = st
                .workers
                .iter()
                .map(|&w| state.memory_bytes(w))
                .fold(f64::INFINITY, f64::min);
            StageMemCheck {
                stage: f.stage,
                required: f.per_worker(st.workers.len()),
                capacity: if capacity.is_finite() { capacity } else { 0.0 },
            }
        })
        .collect();
    MemCheck { stages }
}

/// The deepest `in_flight <= partition.in_flight` that fits, with the
/// check that found it. Footprints are monotone in depth, so the first fit
/// walking down is maximal. (Bisecting instead walks more programs: the
/// requested depth usually fits at once.)
fn deepest_fit(
    profile: &ModelProfile,
    partition: &Partition,
    kind: ScheduleKind,
    model: &MemoryModel,
    state: &ClusterState,
) -> Option<(usize, MemCheck)> {
    let mut candidate = partition.clone();
    for n in (1..=partition.in_flight).rev() {
        candidate.in_flight = n;
        let c = check(profile, &candidate, kind, model, state);
        if c.fits() {
            return Some((n, c));
        }
    }
    None
}

/// Clamp a partition's depth to what fits, in place, returning the
/// clamped partition's check. `None` (and the partition untouched) when
/// infeasible even at depth 1.
pub fn clamp_in_flight(
    profile: &ModelProfile,
    partition: &mut Partition,
    kind: ScheduleKind,
    model: &MemoryModel,
    state: &ClusterState,
) -> Option<MemCheck> {
    let (n, check) = deepest_fit(profile, partition, kind, model, state)?;
    partition.in_flight = n;
    Some(check)
}

/// What [`fit_schedule`] decided.
#[derive(Debug, Clone)]
pub struct FitOutcome {
    /// The schedule that fits (and scored best among feasible ones).
    pub kind: ScheduleKind,
    /// The depth it fits at.
    pub in_flight: usize,
    /// True when the requested schedule had to be abandoned (not merely
    /// depth-clamped) to fit memory.
    pub switched: bool,
    /// The winning candidate's check (all stages fit).
    pub check: MemCheck,
}

/// Fit `requested` onto the cluster, switching schedule if memory demands
/// it. The requested schedule is kept (possibly depth-clamped) whenever it
/// fits; otherwise every zoo schedule is tried at its deepest feasible
/// depth and `score(kind, in_flight)` — higher is better, typically
/// analytic throughput — picks the winner. `None` when nothing fits.
pub fn fit_schedule(
    profile: &ModelProfile,
    partition: &Partition,
    requested: ScheduleKind,
    model: &MemoryModel,
    state: &ClusterState,
    score: &dyn Fn(ScheduleKind, usize) -> f64,
) -> Option<FitOutcome> {
    if let Some((n, check)) = deepest_fit(profile, partition, requested, model, state) {
        return Some(FitOutcome {
            kind: requested,
            in_flight: n,
            switched: false,
            check,
        });
    }
    let mut best: Option<(f64, FitOutcome)> = None;
    for kind in ScheduleKind::zoo() {
        if kind == requested {
            continue;
        }
        let Some((n, check)) = deepest_fit(profile, partition, kind, model, state) else {
            continue;
        };
        let s = score(kind, n);
        let better = match &best {
            Some((bs, _)) => s > *bs,
            None => true,
        };
        if better {
            best = Some((
                s,
                FitOutcome {
                    kind,
                    in_flight: n,
                    switched: true,
                    check,
                },
            ));
        }
    }
    best.map(|(_, o)| o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_cluster::gpu::GpuKind;
    use ap_cluster::{ClusterTopology, EventKind, GpuId};
    use ap_models::{bert48, synthetic_uniform, ModelProfile};
    use ap_pipesim::Stage;

    fn state(kind: GpuKind) -> ClusterState {
        ClusterState::new(ClusterTopology::single_switch(4, 1, kind, 25.0))
    }

    fn two_stage(l: usize, in_flight: usize) -> Partition {
        Partition {
            stages: vec![
                Stage::new(0..l / 2, vec![GpuId(0)]),
                Stage::new(l / 2..l, vec![GpuId(1)]),
            ],
            in_flight,
        }
    }

    #[test]
    fn failed_worker_makes_any_plan_infeasible() {
        let small = synthetic_uniform(8, 1e9, 1e6, 4e6);
        let p = ModelProfile::with_batch(&small, 32);
        let part = two_stage(8, 2);
        let mut st = state(GpuKind::P100);
        assert!(check(
            &p,
            &part,
            ScheduleKind::PipeDreamAsync,
            &MemoryModel::default(),
            &st
        )
        .fits());
        st.apply(&EventKind::WorkerFail(GpuId(1)));
        let c = check(
            &p,
            &part,
            ScheduleKind::PipeDreamAsync,
            &MemoryModel::default(),
            &st,
        );
        assert!(!c.fits());
        assert_eq!(c.stages[1].capacity, 0.0);
        assert!(c.stages[1].deficit() > 0.0);
    }

    #[test]
    fn deep_stashing_gets_clamped_on_small_devices() {
        let p = ModelProfile::of(&bert48());
        let mut part = two_stage(p.n_layers(), 20);
        let st = state(GpuKind::P100);
        let m = MemoryModel::default();
        let c = clamp_in_flight(&p, &mut part, ScheduleKind::PipeDreamAsync, &m, &st)
            .expect("feasible at shallow depth");
        assert!(part.in_flight < 20, "got {}", part.in_flight);
        assert!(c.fits());
        // One deeper does not fit.
        let mut deeper = part.clone();
        deeper.in_flight += 1;
        assert!(!check(&p, &deeper, ScheduleKind::PipeDreamAsync, &m, &st).fits());
    }

    #[test]
    fn starved_cluster_switches_schedule_rich_cluster_keeps_it() {
        let p = ModelProfile::of(&bert48());
        let part = two_stage(p.n_layers(), 4);
        let m = MemoryModel::default();
        // Rich: A100s keep the requested async schedule.
        let rich = state(GpuKind::A100);
        let score = |_k: ScheduleKind, n: usize| n as f64;
        let out = fit_schedule(&p, &part, ScheduleKind::PipeDreamAsync, &m, &rich, &score)
            .expect("rich cluster fits");
        assert!(!out.switched);
        assert_eq!(out.kind, ScheduleKind::PipeDreamAsync);
        // Starved: squeeze capacity until async cannot fit even at depth 1,
        // forcing a switch to a flatter-memory schedule.
        let mut starved = state(GpuKind::P100);
        let async1 = {
            let mut q = part.clone();
            q.in_flight = 1;
            check(&p, &q, ScheduleKind::PipeDreamAsync, &m, &starved)
                .stages
                .iter()
                .map(|s| s.required)
                .fold(0.0, f64::max)
        };
        starved.topology.set_uniform_memory_bytes(async1 * 0.98);
        let out = fit_schedule(
            &p,
            &part,
            ScheduleKind::PipeDreamAsync,
            &m,
            &starved,
            &score,
        );
        if let Some(out) = out {
            assert!(
                out.switched,
                "expected a schedule switch, got {:?}",
                out.kind
            );
            assert!(out.check.fits());
        } else {
            panic!("expected some schedule to fit below the async floor");
        }
    }

    #[test]
    fn fit_schedule_reports_none_when_nothing_fits() {
        let giant = synthetic_uniform(4, 1e9, 1e6, 20e9);
        let p = ModelProfile::with_batch(&giant, 8);
        let part = Partition::single_stage(4, vec![GpuId(0)]);
        let st = state(GpuKind::P100);
        let score = |_k: ScheduleKind, n: usize| n as f64;
        assert!(fit_schedule(
            &p,
            &part,
            ScheduleKind::PipeDreamAsync,
            &MemoryModel::default(),
            &st,
            &score
        )
        .is_none());
    }
}
