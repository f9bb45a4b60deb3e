//! The contention index: reverse maps from GPUs and server uplinks to the
//! jobs resident on them, and the GPUs bucketed by how many jobs they
//! host.
//!
//! Neighborhood re-planning (DESIGN.md §12) needs "which jobs does this
//! event touch?" answered in O(degree), not O(jobs): two jobs contend
//! either by **time-slicing a GPU** or by **sharing a server's up/down
//! links** (the single-switch fabric means every cross-server byte crosses
//! exactly the two endpoints' links, so link contention collapses to
//! server co-residency). Admission needs "which GPUs are least loaded?"
//! answered in O(footprint), not O(fabric): the load buckets list the GPUs
//! in `(load, id)` order. The index is maintained incrementally on every
//! placement change; all containers are B-trees so iteration order — and
//! therefore every downstream planning decision — is deterministic.

use std::collections::{BTreeMap, BTreeSet};

use ap_cluster::{ClusterTopology, GpuId, ServerId};

use crate::scheduler::JobId;

/// Reverse index: GPU → resident jobs, server → jobs with a worker there,
/// load → GPUs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentionIndex {
    by_gpu: BTreeMap<GpuId, BTreeSet<JobId>>,
    by_server: BTreeMap<ServerId, BTreeSet<JobId>>,
    /// `by_load[l]`: the GPUs `l` jobs time-slice. Every GPU of the fabric
    /// is in exactly one bucket, and the last bucket is never empty, so
    /// equal indexes compare equal.
    by_load: Vec<BTreeSet<GpuId>>,
}

impl ContentionIndex {
    /// An empty index over `topo`'s GPUs, all at load 0.
    pub fn new(topo: &ClusterTopology) -> Self {
        let idle: BTreeSet<GpuId> = (0..topo.n_gpus()).map(GpuId).collect();
        ContentionIndex {
            by_gpu: BTreeMap::new(),
            by_server: BTreeMap::new(),
            by_load: if idle.is_empty() {
                Vec::new()
            } else {
                vec![idle]
            },
        }
    }

    /// Move `gpu` from load bucket `from` to `to`.
    fn reload(&mut self, gpu: GpuId, from: usize, to: usize) {
        self.by_load[from].remove(&gpu);
        if to == self.by_load.len() {
            self.by_load.push(BTreeSet::new());
        }
        self.by_load[to].insert(gpu);
        while self.by_load.last().is_some_and(BTreeSet::is_empty) {
            self.by_load.pop();
        }
    }

    /// Record `job` as resident on `gpus`.
    pub fn insert(&mut self, topo: &ClusterTopology, job: JobId, gpus: &[GpuId]) {
        for &g in gpus {
            let jobs = self.by_gpu.entry(g).or_default();
            if jobs.insert(job) {
                let load = jobs.len();
                self.reload(g, load - 1, load);
            }
            self.by_server
                .entry(topo.server_of(g))
                .or_default()
                .insert(job);
        }
    }

    /// Remove `job` from `gpus` (its former footprint, or part of it).
    /// O(footprint × GPUs per server).
    pub fn remove(&mut self, topo: &ClusterTopology, job: JobId, gpus: &[GpuId]) {
        for &g in gpus {
            if let Some(set) = self.by_gpu.get_mut(&g) {
                if set.remove(&job) {
                    let load = set.len();
                    if load == 0 {
                        self.by_gpu.remove(&g);
                    }
                    self.reload(g, load + 1, load);
                }
            }
        }
        for &g in gpus {
            let s = topo.server_of(g);
            // The job keeps its server entry while any other GPU of that
            // server still hosts it.
            let remains = topo.servers[s.0]
                .gpus
                .iter()
                .any(|h| self.by_gpu.get(h).is_some_and(|jobs| jobs.contains(&job)));
            if remains {
                continue;
            }
            if let Some(set) = self.by_server.get_mut(&s) {
                set.remove(&job);
                if set.is_empty() {
                    self.by_server.remove(&s);
                }
            }
        }
    }

    /// Number of jobs time-slicing `gpu` right now.
    pub fn residency(&self, gpu: GpuId) -> usize {
        self.by_gpu.get(&gpu).map_or(0, BTreeSet::len)
    }

    /// The GPUs fewer than `max_share` jobs time-slice, in `(load, id)`
    /// order. Lazy: a caller that stops after `k` GPUs touches only those.
    pub(crate) fn by_load_below(&self, max_share: usize) -> impl Iterator<Item = GpuId> + '_ {
        self.by_load.iter().take(max_share).flatten().copied()
    }

    /// Jobs resident on `gpu`.
    pub fn jobs_on_gpu(&self, gpu: GpuId) -> impl Iterator<Item = JobId> + '_ {
        self.by_gpu.get(&gpu).into_iter().flatten().copied()
    }

    /// Jobs with at least one worker on `server` (they contend for its
    /// up/down links).
    pub fn jobs_on_server(&self, server: ServerId) -> impl Iterator<Item = JobId> + '_ {
        self.by_server.get(&server).into_iter().flatten().copied()
    }

    /// The contention neighborhood of a footprint: every job sharing a
    /// GPU **or** a server link with any of `gpus`. O(degree) — the union
    /// of a few small sets — never a scan over all jobs. Sorted by job id.
    pub fn neighborhood(&self, topo: &ClusterTopology, gpus: &[GpuId]) -> BTreeSet<JobId> {
        let mut out = BTreeSet::new();
        for &g in gpus {
            out.extend(self.jobs_on_gpu(g));
            out.extend(self.jobs_on_server(topo.server_of(g)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_cluster::GpuKind;

    fn topo() -> ClusterTopology {
        // 4 servers x 2 GPUs.
        ClusterTopology::single_switch(4, 2, GpuKind::P100, 25.0)
    }

    #[test]
    fn neighborhood_is_gpu_and_server_union() {
        let t = topo();
        let mut ix = ContentionIndex::new(&t);
        ix.insert(&t, JobId(1), &[GpuId(0)]); // server 0
        ix.insert(&t, JobId(2), &[GpuId(1)]); // server 0, other GPU
        ix.insert(&t, JobId(3), &[GpuId(2)]); // server 1
                                              // Footprint on gpu 0: job 1 (same GPU) + job 2 (same server).
        let n = ix.neighborhood(&t, &[GpuId(0)]);
        assert_eq!(n.into_iter().collect::<Vec<_>>(), vec![JobId(1), JobId(2)]);
        // Job 3 on server 1 is outside the neighborhood.
        let n2 = ix.neighborhood(&t, &[GpuId(4)]);
        assert!(n2.is_empty());
    }

    #[test]
    fn remove_keeps_server_entry_while_other_gpus_remain() {
        let t = topo();
        let mut ix = ContentionIndex::new(&t);
        ix.insert(&t, JobId(7), &[GpuId(0), GpuId(1)]); // both GPUs of server 0
        ix.remove(&t, JobId(7), &[GpuId(0)]);
        // Still on server 0 through gpu 1.
        assert_eq!(
            ix.jobs_on_server(ServerId(0)).collect::<Vec<_>>(),
            vec![JobId(7)]
        );
        ix.remove(&t, JobId(7), &[GpuId(1)]);
        assert_eq!(ix.jobs_on_server(ServerId(0)).count(), 0);
        assert_eq!(ix.residency(GpuId(1)), 0);
    }

    #[test]
    fn random_inserts_and_removes_match_a_rebuilt_index() {
        // 5 servers x 3 GPUs.
        let t = ClusterTopology::single_switch(5, 3, GpuKind::P100, 25.0);
        let mut rng = ap_rng::Rng::seed_from_u64(9);
        let mut ix = ContentionIndex::new(&t);
        // Each job's live GPUs, the index's ground truth.
        let mut live: BTreeMap<JobId, Vec<GpuId>> = BTreeMap::new();
        for step in 0..600u64 {
            let roll = rng.gen_range(0..4u32);
            if live.is_empty() || roll == 0 {
                let n = rng.gen_range(1..=5usize);
                let mut gpus: Vec<GpuId> = (0..n)
                    .map(|_| GpuId(rng.gen_range(0..t.n_gpus())))
                    .collect();
                gpus.sort();
                gpus.dedup();
                ix.insert(&t, JobId(step), &gpus);
                live.insert(JobId(step), gpus);
            } else {
                let pick = rng.gen_range(0..live.len());
                let (&job, gpus) = live.iter_mut().nth(pick).expect("non-empty");
                // Remove the whole footprint, or a random part of it.
                let cut = if roll == 1 {
                    gpus.len()
                } else {
                    rng.gen_range(1..=gpus.len())
                };
                let gone: Vec<GpuId> = gpus.drain(..cut).collect();
                ix.remove(&t, job, &gone);
                if gpus.is_empty() {
                    live.remove(&job);
                }
            }
            let mut rebuilt = ContentionIndex::new(&t);
            for (&job, gpus) in &live {
                rebuilt.insert(&t, job, gpus);
            }
            // The buckets hold every GPU once, at its residency, with no
            // trailing empty bucket.
            assert!(ix.by_load.last().is_none_or(|b| !b.is_empty()));
            let mut bucketed: Vec<GpuId> = ix.by_load.iter().flatten().copied().collect();
            bucketed.sort();
            assert_eq!(bucketed, (0..t.n_gpus()).map(GpuId).collect::<Vec<_>>());
            for (load, gpus) in ix.by_load.iter().enumerate() {
                assert!(gpus.iter().all(|&g| ix.residency(g) == load), "step {step}");
            }
            assert_eq!(ix.by_load, rebuilt.by_load, "step {step}");
            assert_eq!(ix, rebuilt, "step {step}");
        }
    }

    #[test]
    fn residency_counts_time_slicing() {
        let t = topo();
        let mut ix = ContentionIndex::new(&t);
        ix.insert(&t, JobId(1), &[GpuId(3)]);
        ix.insert(&t, JobId(2), &[GpuId(3)]);
        assert_eq!(ix.residency(GpuId(3)), 2);
        ix.remove(&t, JobId(1), &[GpuId(3)]);
        assert_eq!(ix.residency(GpuId(3)), 1);
    }
}
