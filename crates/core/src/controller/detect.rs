//! The detection stage (§4.1's resource changing detector): the
//! persistence-filtered resource-change detector, resized on worker
//! evictions.

use ap_cluster::{ChangeKind, DetectorConfig, ResourceChange, ResourceChangeDetector};

use crate::metrics::ProfilingMetrics;

/// Wraps [`ResourceChangeDetector`], rebuilding it when the observation
/// width changes (worker evictions change how many per-worker series the
/// detector tracks).
pub struct ChangeMonitor {
    detector: ResourceChangeDetector,
    cfg: DetectorConfig,
    width: usize,
}

impl ChangeMonitor {
    /// A monitor over `n_workers` observation series.
    pub fn new(n_workers: usize, cfg: DetectorConfig) -> Self {
        ChangeMonitor {
            detector: ResourceChangeDetector::new(n_workers, cfg.clone()),
            cfg,
            width: n_workers,
        }
    }

    /// Feed one observation; returns the changes confirmed at this point.
    pub fn detect(&mut self, metrics: &ProfilingMetrics, computes: &[f64]) -> Vec<ResourceChange> {
        self.detector.observe(&metrics.bandwidth, computes)
    }

    /// Adapt to a new observation width (worker evictions/additions).
    pub fn resize(&mut self, n_workers: usize) {
        if n_workers != self.width {
            self.detector = ResourceChangeDetector::new(n_workers, self.cfg.clone());
            self.width = n_workers;
        }
    }

    /// Re-baseline after a switch (the old readings no longer apply).
    pub fn reset(&mut self) {
        self.detector.reset();
    }
}

/// Human-readable one-liner for a confirmed change (journal signal text).
pub fn describe_change(c: &ResourceChange) -> String {
    let kind = match c.kind {
        ChangeKind::Bandwidth => "bandwidth",
        ChangeKind::Compute => "compute",
    };
    format!(
        "{kind}[w{}] {:.3e} -> {:.3e} ({:+.0}%)",
        c.worker,
        c.before,
        c.after,
        c.relative() * 100.0
    )
}
