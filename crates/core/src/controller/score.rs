//! The scoring stage: the learned meta-network or the analytic model
//! predicts candidate throughput (§4.3).

use std::collections::VecDeque;

use ap_cluster::ClusterState;
use ap_pipesim::{AnalyticModel, Partition};
use ap_planner::MoveKind;

use crate::meta_net::MetaNet;
use crate::metrics::{static_metrics_from_profile, FeatureEncoder, ProfilingMetrics};

/// Everything a scorer needs to evaluate a candidate partition: the
/// analytic model of the job (profile, sync scheme, framework, schedule,
/// calibration), the recent observation history (for learned scorers)
/// and the current cluster state (for analytic ones).
pub struct ScoreCtx<'a> {
    /// The job's analytic model.
    pub model: AnalyticModel<'a>,
    /// Recent dynamic observations, oldest first (the meta-network's LSTM
    /// input; ignored by the analytic scorer).
    pub history: &'a VecDeque<Vec<f64>>,
    /// Current cluster state.
    pub state: &'a ClusterState,
}

/// What scores candidate partitions.
pub enum Scorer {
    /// The learned meta-network (the paper's design), used by the
    /// ablations, Figure 12 and the scoring bench.
    MetaNet(Box<MetaNet>),
    /// Direct analytic evaluation: what every production path scores
    /// with (ap-serve, ap-sched, the dynamic figures, the chaos drill).
    Analytic,
}

impl Scorer {
    /// Predicted throughput (samples/sec) of one candidate.
    pub fn predict(&self, ctx: &ScoreCtx<'_>, candidate: &Partition) -> f64 {
        match self {
            Scorer::Analytic => ctx.model.throughput(candidate, ctx.state),
            Scorer::MetaNet(net) => {
                let seq: Vec<Vec<f64>> = ctx.history.iter().cloned().collect();
                let m = static_metrics_from_profile(ctx.model.profile, candidate.n_workers());
                // Candidate encodings only need static Table-1 fields.
                let stat = FeatureEncoder.encode_static(&m, candidate);
                net.predict_throughput(&seq, &stat)
            }
        }
    }

    /// Score every move from `base` and return the best `(speed, move)`.
    /// Implementations may hoist candidate-independent work out of the
    /// per-move loop and need not build every candidate, but must select
    /// exactly the move a serial `max_by(total_cmp)` over
    /// [`Scorer::predict`] of each built candidate in input order would:
    /// the last of the highest-scoring moves, with its score to the bit.
    ///
    /// This is the hot path of a decision round — O(L²) candidates:
    ///
    /// * **Analytic** prices `base` into a stage table once, then each
    ///   move against it ([`MoveKind::throughput`]): every move replaces
    ///   one or two stages by one or two new ones and re-prices only those
    ///   and the cuts beside them; no candidate is built unless the move
    ///   toggles a calibrated weight stash. A round
    ///   costs tens of microseconds, less than handing work to another
    ///   thread, so it runs serially on the calling thread.
    /// * **MetaNet**: the dynamic history is identical for every
    ///   candidate, so the LSTM runs *once* ([`MetaNet::encode_history`])
    ///   and each candidate pays only the fully-connected head. Static
    ///   Table-1 metrics depend only on the worker count, so they are
    ///   computed once per distinct count. Like the analytic arm, it
    ///   runs serially on the calling thread.
    ///
    /// Both arms end in a `max_by(total_cmp)` over scores in input order,
    /// so the selected move is the last of the highest scores, exactly as
    /// a serial scan over built candidates picks it.
    pub fn best(
        &self,
        ctx: &ScoreCtx<'_>,
        base: &Partition,
        moves: &[MoveKind],
    ) -> Option<(f64, MoveKind)> {
        match self {
            Scorer::Analytic => {
                let table = ctx.model.table(base, ctx.state);
                moves
                    .iter()
                    .map(|&mv| (mv.throughput(&ctx.model, &table, base, ctx.state), mv))
                    .max_by(|a, b| a.0.total_cmp(&b.0))
            }
            Scorer::MetaNet(net) => {
                let seq: Vec<Vec<f64>> = ctx.history.iter().cloned().collect();
                let h = net.encode_history(&seq);
                let mut static_by_workers: Vec<(usize, ProfilingMetrics)> = Vec::new();
                moves
                    .iter()
                    .map(|&mv| {
                        let p = mv.apply(base);
                        let n = p.n_workers();
                        let at = match static_by_workers.iter().position(|&(k, _)| k == n) {
                            Some(at) => at,
                            None => {
                                static_by_workers
                                    .push((n, static_metrics_from_profile(ctx.model.profile, n)));
                                static_by_workers.len() - 1
                            }
                        };
                        let stat = FeatureEncoder.encode_static(&static_by_workers[at].1, &p);
                        (net.predict_throughput_from_encoding(&h, &stat), mv)
                    })
                    .max_by(|a, b| a.0.total_cmp(&b.0))
            }
        }
    }
}
