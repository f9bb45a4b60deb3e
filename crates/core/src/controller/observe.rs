//! The observation stage (Table 1 metrics, §4.1): the noisy profiler
//! plus the encoded observation history the meta-network consumes.

use std::collections::VecDeque;

use ap_cluster::{ClusterState, GpuId};
use ap_models::ModelProfile;
use ap_pipesim::Partition;

use crate::metrics::{FeatureEncoder, ProfilingMetrics};
use crate::profiler::Profiler;

/// Observations kept for the LSTM history window.
const HISTORY_CAP: usize = 16;

/// Profiles the cluster with measurement noise ([`Profiler`]) and folds
/// each observation's dynamic features into a bounded history.
pub struct ProfilerObserver {
    profiler: Profiler,
    encoder: FeatureEncoder,
    history: VecDeque<Vec<f64>>,
}

impl ProfilerObserver {
    /// Build around a model profile; `noise` is the 1-sigma measurement
    /// noise fraction, `seed` the profiler's RNG seed.
    pub fn new(profile: &ModelProfile, noise: f64, seed: u64) -> Self {
        ProfilerObserver {
            profiler: Profiler::new(profile, noise, seed),
            encoder: FeatureEncoder,
            history: VecDeque::new(),
        }
    }

    /// Seed the history directly (tests and offline evaluation).
    pub fn push_history(&mut self, observation: Vec<f64>) {
        self.history.push_back(observation);
        while self.history.len() > HISTORY_CAP {
            self.history.pop_front();
        }
    }

    /// Take one profiling measurement over `workers` and fold the encoded
    /// dynamic features into the history.
    pub fn observe(
        &mut self,
        workers: &[GpuId],
        state: &ClusterState,
        partition: &Partition,
    ) -> ProfilingMetrics {
        let metrics = self.profiler.observe(workers, state);
        let dynamic = self.encoder.encode_dynamic(&metrics, partition);
        self.push_history(dynamic);
        metrics
    }

    /// Recent dynamic observations, oldest first.
    pub fn history(&self) -> &VecDeque<Vec<f64>> {
        &self.history
    }
}
