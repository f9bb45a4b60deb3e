//! Tuning knobs of the decision pipeline.

use ap_cluster::DetectorConfig;
use ap_models::ModelProfile;
use ap_pipesim::{AnalyticModel, Calibration, Framework, ScheduleKind, SyncScheme};

use super::switch::SwitchMode;

/// Controller configuration.
#[derive(Debug, Clone)]
pub struct AutoPipeConfig {
    /// Gradient sync scheme.
    pub scheme: SyncScheme,
    /// Framework constants.
    pub framework: Framework,
    /// Pipeline schedule.
    pub schedule: ScheduleKind,
    /// Fitted runtime overheads threaded into analytic scoring; `None`
    /// scores with the raw compute/wire model.
    pub calibration: Option<Calibration>,
    /// Decision cadence in iterations.
    pub check_every: usize,
    /// Amortization horizon (iterations) for switching decisions.
    pub horizon_iterations: f64,
    /// Change-detector tuning.
    pub detector: DetectorConfig,
    /// Switch execution mode.
    pub switch_mode: SwitchMode,
    /// Profiler measurement noise (1-sigma, fraction).
    pub profiler_noise: f64,
    /// Incremental moves chained per approved switch (the paper migrates
    /// gradually; chaining a few moves per decision reaches the target
    /// configuration with fewer pipeline disturbances).
    pub moves_per_decision: usize,
    /// Emergency-repair attempts allowed per fault episode before the
    /// controller gives up (paced by an [`ap_resilience::Retry`]).
    pub retry_max_attempts: u32,
    /// Base backoff between repair attempts, sim-seconds (doubles per
    /// attempt, jittered; a negative value means no backoff).
    pub retry_base_delay_seconds: f64,
    /// RNG seed.
    pub seed: u64,
}

impl AutoPipeConfig {
    /// The analytic model of `profile` under this configuration's
    /// modeling knobs (sync scheme, framework, schedule, calibration).
    pub fn model<'a>(&self, profile: &'a ModelProfile) -> AnalyticModel<'a> {
        AnalyticModel {
            profile,
            scheme: self.scheme,
            framework: self.framework,
            schedule: self.schedule,
            calibration: self.calibration,
        }
    }
}

impl Default for AutoPipeConfig {
    fn default() -> Self {
        AutoPipeConfig {
            scheme: SyncScheme::RingAllReduce,
            framework: Framework::pytorch(),
            schedule: ScheduleKind::PipeDreamAsync,
            calibration: None,
            check_every: 5,
            horizon_iterations: 100.0,
            detector: DetectorConfig::default(),
            switch_mode: SwitchMode::FineGrained,
            profiler_noise: 0.02,
            moves_per_decision: 4,
            retry_max_attempts: 5,
            retry_base_delay_seconds: 2.0,
            seed: 1,
        }
    }
}
