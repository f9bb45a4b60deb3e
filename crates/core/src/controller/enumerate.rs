//! The enumeration stage (§4.2): the planner's two-worker neighborhood,
//! extended with eviction moves for degraded workers and filtered against
//! the controller's blacklist of candidates that measured worse after
//! being applied.

use ap_cluster::GpuId;
use ap_models::ModelProfile;
use ap_pipesim::Partition;
use ap_planner::{all_moves, drop_moves, MoveKind};

/// Reverted candidates remembered (and never re-proposed).
const REJECTED_CAP: usize = 16;

/// Enumerates `ap_planner`'s incremental moves (two-worker moves plus
/// stage merges/splits), plus drop moves that shed a degraded worker.
#[derive(Default)]
pub struct MoveEnumerator {
    /// Candidates that measured worse after being applied (negative
    /// reward); never re-proposed.
    rejected: Vec<Partition>,
}

impl MoveEnumerator {
    /// An enumerator with an empty blacklist.
    pub fn new() -> Self {
        MoveEnumerator::default()
    }

    /// Blacklist a candidate (bounded memory: oldest entries fall off).
    pub fn reject(&mut self, candidate: Partition) {
        self.rejected.push(candidate);
        if self.rejected.len() > REJECTED_CAP {
            self.rejected.remove(0);
        }
    }

    /// The current blacklist.
    pub fn rejected(&self) -> &[Partition] {
        &self.rejected
    }

    /// Moves that reach a candidate from `base` in one step, in a fixed
    /// order. `degraded` lists workers eligible for eviction; the
    /// neighborhood is extended with the drop moves that shed them.
    pub fn candidates(
        &self,
        base: &Partition,
        profile: &ModelProfile,
        degraded: &[GpuId],
    ) -> Vec<MoveKind> {
        let mut moves = all_moves(base, profile);
        if !degraded.is_empty() {
            // Keep the drops whose candidate lacks some degraded worker.
            let workers = base.all_workers();
            moves.extend(drop_moves(base).into_iter().filter(|mv| {
                let MoveKind::DropWorker { stage, index } = *mv else {
                    return false;
                };
                let shed = base.stages[stage].workers[index];
                degraded.iter().any(|g| *g == shed || !workers.contains(g))
            }));
        }
        // Only a blacklisting controller pays for building candidates.
        if !self.rejected.is_empty() {
            moves.retain(|mv| !self.rejected.contains(&mv.apply(base)));
        }
        moves
    }
}
