//! Data-parallel gradient synchronization schemes.
//!
//! Replicated stages must synchronize weight gradients each update. The
//! paper evaluates the two common schemes (§5.1): **Parameter Server** and
//! **Ring All-reduce** — and observes that PipeDream's planner *assumes*
//! ring all-reduce, making it inaccurate under PS (§5.2 observation 2).
//! These cost models are the ground truth the simulator charges; PipeDream's
//! planner in `ap-planner` deliberately keeps its (sometimes wrong)
//! all-reduce assumption, exactly like the original system.

use ap_cluster::{ClusterState, GpuId, LinkId};

use crate::partition::Replicas;

/// How a replicated stage synchronizes gradients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncScheme {
    /// Workers push gradients to / pull fresh weights from a parameter
    /// server hosted alongside the first replica.
    ParameterServer,
    /// Bandwidth-optimal ring all-reduce.
    RingAllReduce,
}

impl SyncScheme {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SyncScheme::ParameterServer => "PS",
            SyncScheme::RingAllReduce => "Ring",
        }
    }

    /// Wall-clock seconds to synchronize `bytes` of gradients across
    /// `workers` in `state`. Zero for a single replica.
    pub fn sync_time(self, bytes: f64, workers: &[GpuId], state: &ClusterState) -> f64 {
        self.links(Replicas::of(workers), state).sync_time(bytes)
    }

    /// Wall-clock seconds for **one replica's update** to synchronize when
    /// all `m` replicas run their own update concurrently (PipeDream's
    /// asynchronous round-robin: every mini-batch triggers its own sync,
    /// so `m` syncs share the links at steady state).
    pub fn async_update_time(self, bytes: f64, workers: &[GpuId], state: &ClusterState) -> f64 {
        self.links(Replicas::of(workers), state)
            .async_update_time(bytes)
    }

    /// The links `workers`' gradient sync is bound by in `state`: what
    /// [`SyncLinks::sync_time`] prices any byte count against without
    /// walking the workers again.
    pub(crate) fn links(self, workers: Replicas<'_>, state: &ClusterState) -> SyncLinks {
        let m = workers.len();
        let (hop, path) = match self {
            _ if m <= 1 => (f64::INFINITY, f64::INFINITY),
            SyncScheme::RingAllReduce => (slowest_pairwise_bw(workers, state), f64::INFINITY),
            SyncScheme::ParameterServer => {
                let server = workers.get(0);
                let path = workers
                    .iter()
                    .skip(1)
                    .map(|w| pair_bw(server, w, state))
                    .fold(f64::INFINITY, f64::min);
                (worker_bandwidth(server, state), path)
            }
        };
        SyncLinks {
            scheme: self,
            replicas: m,
            hop,
            path,
        }
    }
}

/// The bandwidths one replicated stage's gradient sync is bound by,
/// found once per worker set ([`SyncScheme::links`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SyncLinks {
    scheme: SyncScheme,
    replicas: usize,
    /// Ring: the slowest pairwise hop. PS: the server's own NIC.
    hop: f64,
    /// PS: the slowest server-to-replica path.
    path: f64,
}

impl SyncLinks {
    /// Seconds to synchronize `bytes` of gradients once. Zero for a
    /// single replica.
    pub(crate) fn sync_time(&self, bytes: f64) -> f64 {
        let m = self.replicas;
        if m <= 1 {
            return 0.0;
        }
        match self.scheme {
            SyncScheme::RingAllReduce => {
                // Classic ring: 2(m-1)/m * bytes over the slowest hop.
                2.0 * (m as f64 - 1.0) / m as f64 * bytes / self.hop
            }
            SyncScheme::ParameterServer => {
                // The PS sits with replica 0: it ingests (m-1) pushes and
                // serves (m-1) pulls over its own NIC, which becomes the
                // bottleneck; remote workers move 2*bytes each, the
                // slowest path last (division rounds monotonically, so
                // this is the largest per-replica time exactly).
                let server_time = 2.0 * bytes * (m as f64 - 1.0) / self.hop;
                let worker_time = 0.0_f64.max(2.0 * bytes / self.path);
                server_time.max(worker_time)
            }
        }
    }

    /// Seconds for one replica's update when all replicas sync
    /// concurrently ([`SyncScheme::async_update_time`]).
    ///
    /// * PS: the server NIC carries `m-1` concurrent push+pull pairs —
    ///   which is exactly what [`SyncLinks::sync_time`] already charges.
    /// * Ring: `m` concurrent ring passes each get `1/m` of every hop, so
    ///   one pass takes `m` times the exclusive ring time.
    pub(crate) fn async_update_time(&self, bytes: f64) -> f64 {
        let m = self.replicas;
        if m <= 1 {
            return 0.0;
        }
        match self.scheme {
            SyncScheme::ParameterServer => self.sync_time(bytes),
            SyncScheme::RingAllReduce => m as f64 * self.sync_time(bytes),
        }
    }
}

/// Available bandwidth of a worker's NIC (min of up/down, local fabric if
/// everything stays on one box).
pub fn worker_bandwidth(w: GpuId, state: &ClusterState) -> f64 {
    let s = state.topology.server_of(w);
    state
        .available_capacity(LinkId::Up(s))
        .min(state.available_capacity(LinkId::Down(s)))
}

/// Available bandwidth of the path between two workers.
pub fn pair_bw(a: GpuId, b: GpuId, state: &ClusterState) -> f64 {
    if state.topology.same_server(a, b) {
        state.topology.local_bytes_per_sec
    } else {
        let sa = state.topology.server_of(a);
        let sb = state.topology.server_of(b);
        state
            .available_capacity(LinkId::Up(sa))
            .min(state.available_capacity(LinkId::Down(sb)))
    }
}

/// The slowest pairwise hop around a ring of workers.
fn slowest_pairwise_bw(workers: Replicas<'_>, state: &ClusterState) -> f64 {
    let m = workers.len();
    (0..m)
        .map(|i| pair_bw(workers.get(i), workers.get((i + 1) % m), state))
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_cluster::gbps;
    use ap_cluster::gpu::GpuKind;
    use ap_cluster::ClusterTopology;

    fn state(link_gbps: f64) -> ClusterState {
        ClusterState::new(ClusterTopology::single_switch(
            4,
            1,
            GpuKind::P100,
            link_gbps,
        ))
    }

    fn w(ids: &[usize]) -> Vec<GpuId> {
        ids.iter().map(|&i| GpuId(i)).collect()
    }

    #[test]
    fn single_replica_costs_nothing() {
        let st = state(10.0);
        for s in [SyncScheme::ParameterServer, SyncScheme::RingAllReduce] {
            assert_eq!(s.sync_time(1e9, &w(&[0]), &st), 0.0);
        }
    }

    #[test]
    fn ring_matches_closed_form() {
        let st = state(10.0);
        let bytes = 1e9;
        let t = SyncScheme::RingAllReduce.sync_time(bytes, &w(&[0, 1, 2, 3]), &st);
        let want = 2.0 * 3.0 / 4.0 * bytes / gbps(10.0);
        assert!((t - want).abs() / want < 1e-9);
    }

    #[test]
    fn ps_is_slower_than_ring_for_many_workers() {
        // PS serializes through one NIC, ring parallelizes: with 4 equal
        // workers PS must be strictly worse.
        let st = state(25.0);
        let ps = SyncScheme::ParameterServer.sync_time(1e9, &w(&[0, 1, 2, 3]), &st);
        let ring = SyncScheme::RingAllReduce.sync_time(1e9, &w(&[0, 1, 2, 3]), &st);
        assert!(ps > ring, "ps {ps} vs ring {ring}");
    }

    #[test]
    fn ps_two_workers_is_push_plus_pull() {
        let st = state(10.0);
        let bytes = 5e8;
        let t = SyncScheme::ParameterServer.sync_time(bytes, &w(&[0, 1]), &st);
        let want = 2.0 * bytes / gbps(10.0);
        assert!((t - want).abs() / want < 1e-9);
    }

    #[test]
    fn colocated_replicas_use_local_fabric() {
        let topo = ClusterTopology::single_switch(1, 2, GpuKind::P100, 10.0);
        let st = ClusterState::new(topo);
        let t = SyncScheme::RingAllReduce.sync_time(1e9, &w(&[0, 1]), &st);
        // Local PCIe at 12 GB/s, so 2*(1/2)*1e9/12e9.
        let want = 1e9 / 12.0e9;
        assert!((t - want).abs() / want < 1e-9);
    }

    #[test]
    fn sync_scales_with_bytes_and_inverse_bandwidth() {
        let st10 = state(10.0);
        let st40 = state(40.0);
        let g = SyncScheme::RingAllReduce;
        let a = g.sync_time(1e9, &w(&[0, 1]), &st10);
        let b = g.sync_time(2e9, &w(&[0, 1]), &st10);
        let c = g.sync_time(1e9, &w(&[0, 1]), &st40);
        assert!((b / a - 2.0).abs() < 1e-9);
        assert!((a / c - 4.0).abs() < 1e-9);
    }
}
