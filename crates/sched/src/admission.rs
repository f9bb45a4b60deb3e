//! Admission policy: can a new job be placed right now, and where?
//!
//! Three typed outcomes, in decreasing order of hospitality:
//!
//! * **Placed** — a footprint of the `wanted` least-loaded live GPUs
//!   exists under the per-GPU colocation cap, and the job's estimated
//!   traffic fits inside the configured headroom of every touched server
//!   link. The job is planted immediately.
//! * **Queued** — the request is well-formed but the cluster cannot host
//!   it *now* (every GPU is at the colocation cap, or the only footprints
//!   available would saturate a link). Queued jobs are retried FIFO on
//!   every departure and recovery.
//! * **Rejected** — the request can never be satisfied by this cluster
//!   (zero GPUs, or more GPUs than the fabric has). Rejection is final
//!   and carries the reason.

use ap_cluster::{ClusterState, ClusterTopology, GpuId, LinkId};

use crate::index::ContentionIndex;

/// Why a job can never be admitted (final).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The request asked for zero GPUs.
    ZeroGpus,
    /// The request wants more GPUs than the cluster has.
    LargerThanCluster {
        /// GPUs requested.
        wanted: usize,
        /// GPUs in the fabric.
        cluster: usize,
    },
    /// No in-flight depth of the planned partition fits the devices it
    /// would land on (modeled by [`ap_mem`], checked at depth 1).
    MemoryInfeasible {
        /// Worst per-stage overshoot at depth 1, bytes.
        deficit_bytes: u64,
    },
}

impl RejectReason {
    /// Stable kebab-case id for API bodies and metrics.
    pub fn id(&self) -> &'static str {
        match self {
            RejectReason::ZeroGpus => "zero-gpus",
            RejectReason::LargerThanCluster { .. } => "larger-than-cluster",
            RejectReason::MemoryInfeasible { .. } => "memory-infeasible",
        }
    }
}

/// Why a job waits in the queue (transient).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueReason {
    /// Fewer than `wanted` live GPUs are under the colocation cap.
    GpuSharesExhausted,
    /// A footprint exists, but the job's traffic would overrun the link
    /// headroom on some touched server.
    LinkSaturated,
}

impl QueueReason {
    /// Stable kebab-case id for API bodies and metrics.
    pub fn id(&self) -> &'static str {
        match self {
            QueueReason::GpuSharesExhausted => "gpu-shares-exhausted",
            QueueReason::LinkSaturated => "link-saturated",
        }
    }
}

/// Fit-check knobs.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Max jobs time-slicing one GPU.
    pub max_share: usize,
    /// Fraction of a link's *currently available* capacity a new job may
    /// claim at admission time.
    pub link_headroom: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_share: 4,
            link_headroom: 0.9,
        }
    }
}

/// Validate the size of a request against the fabric. `Err` means reject.
pub fn validate_size(wanted: usize, topo: &ClusterTopology) -> Result<(), RejectReason> {
    if wanted == 0 {
        return Err(RejectReason::ZeroGpus);
    }
    let cluster = topo.n_gpus();
    if wanted > cluster {
        return Err(RejectReason::LargerThanCluster { wanted, cluster });
    }
    Ok(())
}

/// Pick the `wanted` least-loaded live GPUs under the colocation cap.
/// Load is the index's residency count; ties break on GPU id, so the
/// choice is deterministic. `Err` means queue.
pub fn select_footprint(
    wanted: usize,
    state: &ClusterState,
    index: &ContentionIndex,
    cfg: &AdmissionConfig,
) -> Result<Vec<GpuId>, QueueReason> {
    least_loaded(index, wanted, cfg.max_share, |g| state.is_available(g))
        .ok_or(QueueReason::GpuSharesExhausted)
}

/// The first `wanted` GPUs in `(load, id)` order that fewer than
/// `max_share` jobs time-slice and that pass `usable`, in id order;
/// `None` when fewer qualify. Walks the index's load buckets, so it reads
/// the GPUs it takes and the ones `usable` rejects, never the whole
/// fabric.
pub(crate) fn least_loaded(
    index: &ContentionIndex,
    wanted: usize,
    max_share: usize,
    usable: impl Fn(GpuId) -> bool,
) -> Option<Vec<GpuId>> {
    let mut chosen: Vec<GpuId> = index
        .by_load_below(max_share)
        .filter(|&g| usable(g))
        .take(wanted)
        .collect();
    if chosen.len() < wanted {
        return None;
    }
    chosen.sort_unstable();
    Some(chosen)
}

/// Does a job emitting `net_bytes_per_sec` onto each touched server link
/// fit inside the headroom of every link it crosses? Single-server
/// footprints send nothing across the fabric and always fit.
pub fn link_headroom_ok(
    state: &ClusterState,
    footprint: &[GpuId],
    net_bytes_per_sec: f64,
    cfg: &AdmissionConfig,
) -> bool {
    let mut servers: Vec<_> = footprint
        .iter()
        .map(|&g| state.topology.server_of(g))
        .collect();
    servers.sort();
    servers.dedup();
    if servers.len() <= 1 || net_bytes_per_sec <= 0.0 {
        return true;
    }
    servers.iter().all(|&s| {
        let cap = state
            .available_capacity(LinkId::Up(s))
            .min(state.available_capacity(LinkId::Down(s)));
        net_bytes_per_sec <= cfg.link_headroom * cap
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_cluster::{gbps, EventKind, GpuKind, ServerId};

    use crate::scheduler::JobId;

    fn state() -> ClusterState {
        ClusterState::new(ClusterTopology::single_switch(3, 2, GpuKind::P100, 25.0))
    }

    #[test]
    fn size_validation_rejects_impossible_requests() {
        let st = state();
        assert_eq!(validate_size(0, &st.topology), Err(RejectReason::ZeroGpus));
        assert_eq!(
            validate_size(7, &st.topology),
            Err(RejectReason::LargerThanCluster {
                wanted: 7,
                cluster: 6
            })
        );
        assert!(validate_size(6, &st.topology).is_ok());
    }

    #[test]
    fn footprint_prefers_least_loaded_gpus() {
        let st = state();
        let mut ix = ContentionIndex::new(&st.topology);
        ix.insert(&st.topology, JobId(1), &[GpuId(0), GpuId(1)]);
        let cfg = AdmissionConfig::default();
        let got = select_footprint(2, &st, &ix, &cfg).expect("fits");
        assert_eq!(got, vec![GpuId(2), GpuId(3)], "idle GPUs win, id order");
    }

    /// The selection `select_footprint` (and `evacuate`, with the
    /// surviving footprint in `exclude`) made before the index kept load
    /// buckets: sort every live candidate by `(load, id)`, keep `wanted`,
    /// re-sort by id.
    fn sorted_selection(
        wanted: usize,
        st: &ClusterState,
        ix: &ContentionIndex,
        cfg: &AdmissionConfig,
        exclude: &[GpuId],
    ) -> Result<Vec<GpuId>, QueueReason> {
        let mut c: Vec<GpuId> = st
            .available_workers()
            .into_iter()
            .filter(|&g| !exclude.contains(&g) && ix.residency(g) < cfg.max_share)
            .collect();
        if c.len() < wanted {
            return Err(QueueReason::GpuSharesExhausted);
        }
        c.sort_by_key(|&g| (ix.residency(g), g));
        c.truncate(wanted);
        c.sort();
        Ok(c)
    }

    #[test]
    fn selection_matches_a_full_sort_on_random_loads() {
        let mut rng = ap_rng::Rng::seed_from_u64(31);
        for trial in 0..200u64 {
            // 6 servers x 4 GPUs; few load levels, so ties are common.
            let mut st =
                ClusterState::new(ClusterTopology::single_switch(6, 4, GpuKind::P100, 25.0));
            let mut ix = ContentionIndex::new(&st.topology);
            let mut placed = Vec::new();
            for j in 0..rng.gen_range(0..40u64) {
                let g = GpuId(rng.gen_range(0..24usize));
                ix.insert(&st.topology, JobId(j), &[g]);
                placed.push((JobId(j), g));
            }
            // Departures move GPUs back down the load buckets.
            for _ in 0..rng.gen_range(0..=placed.len()) {
                let (job, g) = placed.swap_remove(rng.gen_range(0..placed.len()));
                ix.remove(&st.topology, job, &[g]);
            }
            for _ in 0..rng.gen_range(0..4u32) {
                st.apply(&EventKind::WorkerFail(GpuId(rng.gen_range(0..24usize))));
            }
            let cfg = AdmissionConfig {
                max_share: rng.gen_range(1..=5usize),
                ..AdmissionConfig::default()
            };
            let wanted = rng.gen_range(1..=24usize);
            assert_eq!(
                select_footprint(wanted, &st, &ix, &cfg),
                sorted_selection(wanted, &st, &ix, &cfg, &[]),
                "trial {trial}"
            );
            // Evacuation's replacements: the surviving footprint is
            // excluded.
            let survivors: Vec<GpuId> = (0..rng.gen_range(0..6usize))
                .map(|_| GpuId(rng.gen_range(0..24usize)))
                .collect();
            let missing = rng.gen_range(0..=8usize);
            let usable = |g| st.is_available(g) && !survivors.contains(&g);
            assert_eq!(
                least_loaded(&ix, missing, cfg.max_share, usable)
                    .ok_or(QueueReason::GpuSharesExhausted),
                sorted_selection(missing, &st, &ix, &cfg, &survivors),
                "trial {trial}, excluding {survivors:?}"
            );
        }
    }

    #[test]
    fn cap_exhaustion_queues() {
        let st = state();
        let mut ix = ContentionIndex::new(&st.topology);
        let cfg = AdmissionConfig {
            max_share: 1,
            ..AdmissionConfig::default()
        };
        for j in 0..6 {
            ix.insert(&st.topology, JobId(j), &[GpuId(j as usize)]);
        }
        assert_eq!(
            select_footprint(1, &st, &ix, &cfg),
            Err(QueueReason::GpuSharesExhausted)
        );
    }

    #[test]
    fn failed_workers_are_not_candidates() {
        let mut st = state();
        st.apply(&EventKind::WorkerFail(GpuId(0)));
        let ix = ContentionIndex::new(&st.topology);
        let cfg = AdmissionConfig::default();
        let got = select_footprint(6, &st, &ix, &cfg);
        assert_eq!(got, Err(QueueReason::GpuSharesExhausted), "only 5 alive");
    }

    #[test]
    fn headroom_gates_cross_server_traffic() {
        let mut st = state();
        let cfg = AdmissionConfig {
            link_headroom: 0.5,
            ..AdmissionConfig::default()
        };
        let cross = vec![GpuId(0), GpuId(2)]; // servers 0 and 1
        assert!(link_headroom_ok(&st, &cross, gbps(10.0), &cfg));
        assert!(!link_headroom_ok(&st, &cross, gbps(20.0), &cfg));
        // Same-server placements never cross the fabric.
        let local = vec![GpuId(0), GpuId(1)];
        assert!(link_headroom_ok(&st, &local, gbps(100.0), &cfg));
        // Background traffic shrinks what is available.
        st.apply(&EventKind::SetBackgroundTraffic(ServerId(0), gbps(20.0)));
        assert!(!link_headroom_ok(&st, &cross, gbps(10.0), &cfg));
    }
}
