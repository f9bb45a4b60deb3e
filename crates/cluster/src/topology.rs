//! Cluster topology: servers with GPUs and NICs behind a single switch.
//!
//! The paper's testbed is "5 physical GPU servers, each with 2 NVIDIA P100
//! GPUs ... 1 Mellanox ConnectX5 100Gbps dual ports NIC, and 1 Mellanox
//! SN2100 switch, which builds a single switch topology" (§5.1). We model
//! exactly that shape: every server has one full-duplex uplink to the
//! switch; a flow between two servers traverses the sender's uplink and the
//! receiver's downlink. Intra-server transfers go over PCIe/NVLink and are
//! modeled with a fixed (high) local bandwidth.

use crate::gpu::{Gpu, GpuId, GpuKind};
use crate::units::gbps;

/// Identifier of a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub usize);

/// Identifier of a directed link (server uplink or downlink).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkId {
    /// Server -> switch direction.
    Up(ServerId),
    /// Switch -> server direction.
    Down(ServerId),
}

/// One physical server.
#[derive(Debug, Clone)]
pub struct Server {
    /// GPUs installed in this server (global ids).
    pub gpus: Vec<GpuId>,
    /// NIC line rate in bytes/s (both directions, full duplex).
    pub nic_bytes_per_sec: f64,
}

/// A single-switch GPU cluster.
#[derive(Debug, Clone)]
pub struct ClusterTopology {
    /// All servers, indexed by `ServerId.0`.
    pub servers: Vec<Server>,
    /// All GPUs, indexed by `GpuId.0`.
    pub gpus: Vec<Gpu>,
    /// Bandwidth for transfers between GPUs of the same server, bytes/s.
    pub local_bytes_per_sec: f64,
    /// Host server of every GPU, indexed by `GpuId.0`: the inverse of
    /// `servers[].gpus`, so [`ClusterTopology::server_of`] is one load.
    server_of_gpu: Vec<ServerId>,
}

impl ClusterTopology {
    /// Build the paper's testbed shape: `n_servers` servers with
    /// `gpus_per_server` GPUs of `kind` each, all NICs at `link_gbps`.
    pub fn single_switch(
        n_servers: usize,
        gpus_per_server: usize,
        kind: GpuKind,
        link_gbps: f64,
    ) -> Self {
        assert!(n_servers > 0 && gpus_per_server > 0, "empty topology");
        let mut servers = Vec::with_capacity(n_servers);
        let mut gpus = Vec::with_capacity(n_servers * gpus_per_server);
        let mut server_of_gpu = Vec::with_capacity(n_servers * gpus_per_server);
        for s in 0..n_servers {
            let ids: Vec<GpuId> = (0..gpus_per_server)
                .map(|g| GpuId(s * gpus_per_server + g))
                .collect();
            for _ in 0..gpus_per_server {
                gpus.push(Gpu::exclusive(kind));
                server_of_gpu.push(ServerId(s));
            }
            servers.push(Server {
                gpus: ids,
                nic_bytes_per_sec: gbps(link_gbps),
            });
        }
        ClusterTopology {
            servers,
            gpus,
            // PCIe 3.0 x16-ish local bandwidth; fast relative to any NIC.
            local_bytes_per_sec: kind.pcie_bytes_per_sec(),
            server_of_gpu,
        }
    }

    /// The paper's testbed: 5 servers x 2 P100 at the given link speed.
    pub fn paper_testbed(link_gbps: f64) -> Self {
        Self::single_switch(5, 2, GpuKind::P100, link_gbps)
    }

    /// Total number of GPUs.
    pub fn n_gpus(&self) -> usize {
        self.gpus.len()
    }

    /// Which server hosts a GPU.
    pub fn server_of(&self, gpu: GpuId) -> ServerId {
        match self.server_of_gpu.get(gpu.0) {
            Some(&s) => s,
            None => panic!("GPU {gpu:?} not present in topology"),
        }
    }

    /// Whether two GPUs are colocated on one server.
    pub fn same_server(&self, a: GpuId, b: GpuId) -> bool {
        self.server_of(a) == self.server_of(b)
    }

    /// The directed links a transfer from `src` GPU to `dst` GPU
    /// traverses, in order: the sender's uplink, then the receiver's
    /// downlink. `None` when both GPUs share a server (local transfer).
    pub fn path(&self, src: GpuId, dst: GpuId) -> Option<[LinkId; 2]> {
        let (s, d) = (self.server_of(src), self.server_of(dst));
        (s != d).then_some([LinkId::Up(s), LinkId::Down(d)])
    }

    /// Line-rate capacity of a link in bytes/s.
    pub fn link_capacity(&self, link: LinkId) -> f64 {
        let sid = match link {
            LinkId::Up(s) | LinkId::Down(s) => s,
        };
        self.servers[sid.0].nic_bytes_per_sec
    }

    /// Mutable GPU access.
    pub fn gpu_mut(&mut self, id: GpuId) -> &mut Gpu {
        &mut self.gpus[id.0]
    }

    /// Immutable GPU access.
    pub fn gpu(&self, id: GpuId) -> &Gpu {
        &self.gpus[id.0]
    }

    /// Set every NIC to the same line rate (used by bandwidth sweeps).
    pub fn set_uniform_link_gbps(&mut self, link_gbps: f64) {
        for s in &mut self.servers {
            s.nic_bytes_per_sec = gbps(link_gbps);
        }
    }

    /// Set every GPU's usable memory to the same capacity (memory-rich vs
    /// memory-starved cluster sweeps).
    pub fn set_uniform_memory_bytes(&mut self, mem_bytes: f64) {
        assert!(mem_bytes > 0.0, "memory capacity must be positive");
        for g in &mut self.gpus {
            g.mem_bytes = mem_bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_shape_matches_paper() {
        let t = ClusterTopology::paper_testbed(100.0);
        assert_eq!(t.servers.len(), 5);
        assert_eq!(t.n_gpus(), 10);
        for s in &t.servers {
            assert_eq!(s.gpus.len(), 2);
            assert!((s.nic_bytes_per_sec - gbps(100.0)).abs() < 1.0);
        }
    }

    #[test]
    fn server_lookup_and_paths() {
        let t = ClusterTopology::single_switch(3, 2, GpuKind::P100, 25.0);
        assert_eq!(t.server_of(GpuId(0)), ServerId(0));
        assert_eq!(t.server_of(GpuId(5)), ServerId(2));
        assert!(t.same_server(GpuId(2), GpuId(3)));
        assert_eq!(t.path(GpuId(0), GpuId(1)), None);
        assert_eq!(
            t.path(GpuId(0), GpuId(4)),
            Some([LinkId::Up(ServerId(0)), LinkId::Down(ServerId(2))])
        );
    }

    #[test]
    fn server_table_matches_a_scan_of_the_servers() {
        for (n_servers, per) in [(1, 1), (1, 8), (5, 2), (7, 3), (125, 4)] {
            let t = ClusterTopology::single_switch(n_servers, per, GpuKind::V100, 25.0);
            assert_eq!(t.n_gpus(), n_servers * per);
            for g in (0..t.n_gpus()).map(GpuId) {
                let scanned = t
                    .servers
                    .iter()
                    .position(|s| s.gpus.contains(&g))
                    .map(ServerId);
                assert_eq!(Some(t.server_of(g)), scanned, "{n_servers}x{per} {g:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not present in topology")]
    fn unknown_gpu_has_no_server() {
        let t = ClusterTopology::single_switch(3, 2, GpuKind::P100, 25.0);
        let _ = t.server_of(GpuId(6));
    }

    #[test]
    fn link_capacity_reads_nic_rate() {
        let t = ClusterTopology::single_switch(2, 1, GpuKind::V100, 40.0);
        assert!((t.link_capacity(LinkId::Up(ServerId(1))) - gbps(40.0)).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "empty topology")]
    fn empty_topology_rejected() {
        let _ = ClusterTopology::single_switch(0, 1, GpuKind::P100, 10.0);
    }

    #[test]
    fn uniform_link_update_applies_everywhere() {
        let mut t = ClusterTopology::paper_testbed(10.0);
        t.set_uniform_link_gbps(25.0);
        assert!(t
            .servers
            .iter()
            .all(|s| (s.nic_bytes_per_sec - gbps(25.0)).abs() < 1.0));
    }

    #[test]
    fn uniform_memory_update_applies_everywhere() {
        let mut t = ClusterTopology::paper_testbed(10.0);
        let cap = 8.0 * 1024.0 * 1024.0 * 1024.0;
        t.set_uniform_memory_bytes(cap);
        assert!(t.gpus.iter().all(|g| g.memory_bytes() == cap));
    }
}
