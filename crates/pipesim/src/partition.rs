//! Work partitions: the object AutoPipe optimizes.
//!
//! A [`Partition`] is PipeDream's plan output (§2.1): "1) a partitioning of
//! layers with the form of stages; 2) number of workers for each stage;
//! 3) optimal number of on-the-fly mini-batches to fill the pipeline."

use std::fmt;
use std::ops::Range;

use ap_cluster::GpuId;
use ap_models::ModelProfile;

/// Why a [`Partition`] failed structural validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// The partition has no stages at all.
    NoStages,
    /// `in_flight` is zero.
    ZeroInFlight,
    /// Stage `stage` starts at `start` instead of the expected layer.
    Gap {
        /// Offending stage index.
        stage: usize,
        /// Layer the stage starts at.
        start: usize,
        /// Layer it should have started at.
        expected: usize,
    },
    /// Stage `stage` covers an empty layer range.
    EmptyStage {
        /// Offending stage index.
        stage: usize,
    },
    /// Stage `stage` has no workers.
    NoWorkers {
        /// Offending stage index.
        stage: usize,
    },
    /// The stages cover `covered` layers but the model has `n_layers`.
    Coverage {
        /// Layers covered by the stages (`0..covered`).
        covered: usize,
        /// Layers the model actually has.
        n_layers: usize,
    },
    /// A worker appears in more than one stage.
    DuplicateWorker {
        /// The doubly-assigned worker.
        worker: GpuId,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::NoStages => write!(f, "partition has no stages"),
            PartitionError::ZeroInFlight => write!(f, "in_flight must be at least 1"),
            PartitionError::Gap {
                stage,
                start,
                expected,
            } => write!(
                f,
                "stage {stage} starts at layer {start} but expected {expected}"
            ),
            PartitionError::EmptyStage { stage } => write!(f, "stage {stage} covers no layers"),
            PartitionError::NoWorkers { stage } => write!(f, "stage {stage} has no workers"),
            PartitionError::Coverage { covered, n_layers } => write!(
                f,
                "stages cover layers 0..{covered} but the model has {n_layers}"
            ),
            PartitionError::DuplicateWorker { worker } => {
                write!(f, "worker {worker:?} assigned to multiple stages")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// One pipeline stage: a contiguous layer range replicated over workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// Half-open range of model layers this stage computes.
    pub layers: Range<usize>,
    /// Data-parallel replicas executing this stage.
    pub workers: Vec<GpuId>,
}

impl Stage {
    /// Convenience constructor.
    pub fn new(layers: Range<usize>, workers: Vec<GpuId>) -> Self {
        Stage { layers, workers }
    }

    /// Number of replicas.
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }
}

/// A replica list read as two slices in order: a stage's workers with
/// one removed, or two stages' workers joined, priced without building
/// the list.
#[derive(Debug, Clone, Copy)]
pub struct Replicas<'w> {
    head: &'w [GpuId],
    tail: &'w [GpuId],
}

impl<'w> Replicas<'w> {
    /// The list `workers` itself.
    pub fn of(workers: &'w [GpuId]) -> Self {
        Replicas {
            head: workers,
            tail: &[],
        }
    }

    /// `head` followed by `tail`.
    pub fn joined(head: &'w [GpuId], tail: &'w [GpuId]) -> Self {
        Replicas { head, tail }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replica `i` in list order.
    pub fn get(&self, i: usize) -> GpuId {
        match self.head.get(i) {
            Some(&w) => w,
            None => self.tail[i - self.head.len()],
        }
    }

    /// The replicas in list order.
    pub fn iter(&self) -> impl Iterator<Item = GpuId> + 'w {
        self.head.iter().chain(self.tail).copied()
    }

    /// The list, built.
    pub fn to_vec(&self) -> Vec<GpuId> {
        self.iter().collect()
    }
}

/// A complete work partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Pipeline stages, input side first.
    pub stages: Vec<Stage>,
    /// Number of mini-batches kept in flight (PipeDream's NOAM).
    pub in_flight: usize,
}

impl Partition {
    /// A single-stage "partition" (pure data parallelism over `workers`).
    pub fn single_stage(n_layers: usize, workers: Vec<GpuId>) -> Self {
        let mut p = Partition {
            stages: vec![Stage::new(0..n_layers, workers)],
            in_flight: 1,
        };
        p.in_flight = p.default_in_flight();
        p
    }

    /// Number of stages.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total number of workers.
    pub fn n_workers(&self) -> usize {
        self.stages.iter().map(Stage::n_workers).sum()
    }

    /// All workers in stage order.
    pub fn all_workers(&self) -> Vec<GpuId> {
        self.stages.iter().flat_map(|s| s.workers.clone()).collect()
    }

    /// Which stage computes `layer`.
    pub fn stage_of_layer(&self, layer: usize) -> Option<usize> {
        self.stages.iter().position(|s| s.layers.contains(&layer))
    }

    /// Which stage a worker belongs to.
    pub fn stage_of_worker(&self, w: GpuId) -> Option<usize> {
        self.stages.iter().position(|s| s.workers.contains(&w))
    }

    /// Default NOAM: enough in-flight mini-batches to keep the pipeline
    /// full.
    ///
    /// PipeDream's rule is `ceil(N / m1)` mini-batches *per input-stage
    /// replica*; our engine counts total in-flight units, so that becomes
    /// `ceil(N / m1) * m1`. On top, activation/gradient transfers act like
    /// extra pipeline stages when communication is slow, so we keep
    /// `2 * stages` additional units in flight. (PipeDream caps NOAM for
    /// weight-stash memory; device memory is not modeled here, but an
    /// over-deep pipeline still costs real fill time and staleness, so the
    /// overlap term is additive, not per-replica.)
    pub fn default_in_flight(&self) -> usize {
        let first = self.stages.first().map(Stage::n_workers).unwrap_or(1);
        Self::default_depth(self.n_workers(), self.n_stages(), first)
    }

    /// [`Partition::default_in_flight`] of any partition with `n_workers`
    /// workers over `n_stages` stages, `first` of them on the input stage.
    pub fn default_depth(n_workers: usize, n_stages: usize, first: usize) -> usize {
        let first = first.max(1);
        let round_robin = n_workers.div_ceil(first) * first;
        round_robin.max(2 * n_stages + first).max(1)
    }

    /// Check structural validity against a model with `n_layers` layers:
    /// contiguous full coverage, nonempty stages, globally distinct
    /// workers, positive in-flight count.
    pub fn validate(&self, n_layers: usize) -> Result<(), PartitionError> {
        if self.stages.is_empty() {
            return Err(PartitionError::NoStages);
        }
        if self.in_flight == 0 {
            return Err(PartitionError::ZeroInFlight);
        }
        let mut expect = 0usize;
        for (i, s) in self.stages.iter().enumerate() {
            if s.layers.start != expect {
                return Err(PartitionError::Gap {
                    stage: i,
                    start: s.layers.start,
                    expected: expect,
                });
            }
            if s.layers.is_empty() {
                return Err(PartitionError::EmptyStage { stage: i });
            }
            if s.workers.is_empty() {
                return Err(PartitionError::NoWorkers { stage: i });
            }
            expect = s.layers.end;
        }
        if expect != n_layers {
            return Err(PartitionError::Coverage {
                covered: expect,
                n_layers,
            });
        }
        let mut seen = std::collections::HashSet::new();
        for s in &self.stages {
            for w in &s.workers {
                if !seen.insert(*w) {
                    return Err(PartitionError::DuplicateWorker { worker: *w });
                }
            }
        }
        Ok(())
    }

    /// The layer indices whose output crosses a stage boundary (cut
    /// points), i.e. the last layer of every stage but the final one.
    pub fn cut_layers(&self) -> Vec<usize> {
        self.stages[..self.n_stages() - 1]
            .iter()
            .map(|s| s.layers.end - 1)
            .collect()
    }

    /// Parameter bytes held by stage `s` under `profile`.
    pub fn stage_param_bytes(&self, s: usize, profile: &ModelProfile) -> f64 {
        let st = &self.stages[s];
        profile.range_params(st.layers.start, st.layers.end)
    }

    /// A compact description like `[0..5 x2 | 5..21 x1]`.
    pub fn summary(&self) -> String {
        let parts: Vec<String> = self
            .stages
            .iter()
            .map(|s| format!("{}..{} x{}", s.layers.start, s.layers.end, s.n_workers()))
            .collect();
        format!("[{}] inflight={}", parts.join(" | "), self.in_flight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpus(ids: &[usize]) -> Vec<GpuId> {
        ids.iter().map(|&i| GpuId(i)).collect()
    }

    fn two_stage() -> Partition {
        Partition {
            stages: vec![
                Stage::new(0..5, gpus(&[0, 1])),
                Stage::new(5..12, gpus(&[2])),
            ],
            in_flight: 3,
        }
    }

    #[test]
    fn valid_partition_passes() {
        assert!(two_stage().validate(12).is_ok());
    }

    #[test]
    fn gap_in_coverage_rejected() {
        let mut p = two_stage();
        p.stages[1].layers = 6..12;
        let err = p.validate(12).unwrap_err();
        assert_eq!(
            err,
            PartitionError::Gap {
                stage: 1,
                start: 6,
                expected: 5
            }
        );
        assert!(err.to_string().contains("expected 5"));
    }

    #[test]
    fn incomplete_coverage_rejected() {
        let err = two_stage().validate(13).unwrap_err();
        assert_eq!(
            err,
            PartitionError::Coverage {
                covered: 12,
                n_layers: 13
            }
        );
        assert!(err.to_string().contains("has 13"));
    }

    #[test]
    fn duplicate_worker_rejected() {
        let mut p = two_stage();
        p.stages[1].workers = gpus(&[1]);
        let err = p.validate(12).unwrap_err();
        assert_eq!(err, PartitionError::DuplicateWorker { worker: GpuId(1) });
        assert!(err.to_string().contains("multiple stages"));
    }

    #[test]
    fn zero_in_flight_rejected() {
        let mut p = two_stage();
        p.in_flight = 0;
        assert_eq!(p.validate(12), Err(PartitionError::ZeroInFlight));
    }

    #[test]
    fn lookups() {
        let p = two_stage();
        assert_eq!(p.stage_of_layer(4), Some(0));
        assert_eq!(p.stage_of_layer(5), Some(1));
        assert_eq!(p.stage_of_layer(12), None);
        assert_eq!(p.stage_of_worker(GpuId(2)), Some(1));
        assert_eq!(p.stage_of_worker(GpuId(9)), None);
        assert_eq!(p.cut_layers(), vec![4]);
        assert_eq!(p.n_workers(), 3);
    }

    #[test]
    fn default_in_flight_covers_replicas_and_overlap() {
        let p = two_stage();
        // 3 workers, 2 input replicas: round-robin needs ceil(3/2)*2 = 4,
        // overlap floor is 2*2 + 2 = 6.
        assert_eq!(p.default_in_flight(), 6);
        let q = Partition {
            stages: vec![
                Stage::new(0..4, gpus(&[0])),
                Stage::new(4..8, gpus(&[1])),
                Stage::new(8..12, gpus(&[2, 3])),
            ],
            in_flight: 1,
        };
        // Round-robin: ceil(4/1)*1 = 4; overlap floor: 2*3 + 1 = 7.
        assert_eq!(q.default_in_flight(), 7);
        // Pure data parallelism: every replica needs its own mini-batch.
        let dp = Partition::single_stage(4, gpus(&[0, 1, 2, 3]));
        assert!(dp.default_in_flight() >= 4);
    }

    #[test]
    fn summary_is_readable() {
        assert_eq!(two_stage().summary(), "[0..5 x2 | 5..12 x1] inflight=3");
    }
}
