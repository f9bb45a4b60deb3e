//! Resource dynamics: what changes while a training job runs.
//!
//! §3.1 Observation 1: "during the lifetime of a training job, other shared
//! GPU jobs may start, complete or suspend, which causes the fluctuation of
//! GPU resources. The fluctuation of bandwidth is more common". We model a
//! [`ResourceTimeline`] of [`ResourceEvent`]s applied to a base
//! [`ClusterTopology`], yielding a [`ClusterState`] snapshot at any time.
//! Scripted timelines drive the paper's controlled experiments (Figures
//! 3–6, 9, 10); [`BackgroundJobGenerator`] produces stochastic multi-tenant
//! churn for stress tests.

use std::collections::{BTreeSet, HashMap};

use ap_rng::Rng;

use crate::gpu::GpuId;
use crate::topology::{ClusterTopology, LinkId, ServerId};
use crate::units::gbps;

/// Identifier of a background job placed by the dynamics layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BgJobId(pub u64);

/// What happened to the shared cluster.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// Set every NIC to this many Gbps (e.g. the Figure 9 staircase).
    SetAllLinksGbps(f64),
    /// Set one server's NIC rate.
    SetServerLinkGbps(ServerId, f64),
    /// Multiply every NIC rate by a factor (Figure 3 halves bandwidth).
    ScaleAllLinks(f64),
    /// A competing flow consumes this many bytes/s on a server's up+down
    /// links (e.g. a dataset upload).
    SetBackgroundTraffic(ServerId, f64),
    /// A background job arrives and time-shares the listed GPUs; it may also
    /// consume `net_bytes_per_sec` on each touched server's links (a
    /// distributed job uses both, Figure 5).
    JobArrive {
        id: BgJobId,
        gpus: Vec<GpuId>,
        net_bytes_per_sec: f64,
    },
    /// The background job releases its GPUs and bandwidth (Figure 6).
    JobDepart(BgJobId),
    /// Directly set a GPU's sharing degree (failure injection: a huge
    /// value models a device that has effectively dropped out — the
    /// cluster-utilization study the paper cites (ref. 7) lists failures as a
    /// distinct churn source).
    SetGpuSharing(GpuId, u32),
    /// A worker dies fail-stop: it leaves the availability view, its
    /// effective compute drops to zero, and any state it held is lost.
    WorkerFail(GpuId),
    /// A previously failed worker rejoins the cluster at full health
    /// (cold: it holds no model state until the job re-plans onto it).
    WorkerRecover(GpuId),
    /// A server NIC flaps down to the given Gbps; the pre-flap rate is
    /// saved so [`EventKind::LinkFlapRestore`] can undo exactly this flap
    /// even if other bandwidth events interleave.
    LinkFlapDown(ServerId, f64),
    /// The flapped NIC returns to its saved pre-flap rate (no-op if the
    /// server is not currently flapped down).
    LinkFlapRestore(ServerId),
}

/// A timestamped cluster event.
#[derive(Debug, Clone)]
pub struct ResourceEvent {
    /// Seconds since experiment start.
    pub time: f64,
    /// What changed.
    pub kind: EventKind,
}

/// A time-ordered script of events.
#[derive(Debug, Clone, Default)]
pub struct ResourceTimeline {
    events: Vec<ResourceEvent>,
}

impl ResourceTimeline {
    /// Empty timeline (static cluster).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build from events, sorted by time. The sort is stable, so events
    /// sharing a timestamp keep their order in `events` — coincident fault
    /// and bandwidth events apply in a defined (input) order.
    pub fn new(mut events: Vec<ResourceEvent>) -> Self {
        events.sort_by(|a, b| a.time.total_cmp(&b.time));
        ResourceTimeline { events }
    }

    /// Append an event, keeping time order. Among events at exactly the
    /// same timestamp, insertion order is preserved: the one pushed first
    /// applies first (and is returned first by
    /// [`ResourceTimeline::events_between`]).
    pub fn push(&mut self, time: f64, kind: EventKind) {
        let idx = self.events.partition_point(|e| e.time <= time);
        self.events.insert(idx, ResourceEvent { time, kind });
    }

    /// All events.
    pub fn events(&self) -> &[ResourceEvent] {
        &self.events
    }

    /// Events with `prev < time <= now` (what a poller sees this interval).
    pub fn events_between(&self, prev: f64, now: f64) -> &[ResourceEvent] {
        let start = self.events.partition_point(|e| e.time <= prev);
        let end = self.events.partition_point(|e| e.time <= now);
        &self.events[start..end]
    }

    /// Time of the next event strictly after `t`, if any. The event engine
    /// uses this to re-evaluate rates exactly at change points.
    pub fn next_event_after(&self, t: f64) -> Option<f64> {
        let idx = self.events.partition_point(|e| e.time <= t);
        self.events.get(idx).map(|e| e.time)
    }
}

/// The live state of the cluster at some instant: the base topology with
/// contention applied plus background traffic per link.
#[derive(Debug, Clone)]
pub struct ClusterState {
    /// Topology with per-GPU `colocated_jobs` reflecting current sharing.
    pub topology: ClusterTopology,
    /// Background traffic (bytes/s) currently consuming each link,
    /// indexed by [`LinkId::slot`]; a link past the end carries none.
    background: Vec<f64>,
    /// Live background jobs (for departures).
    jobs: HashMap<BgJobId, (Vec<GpuId>, f64)>,
    /// Workers currently failed (fail-stop). Ordered so iteration — and
    /// everything derived from it — is deterministic.
    failed: BTreeSet<GpuId>,
    /// Pre-flap NIC rates of servers currently flapped down, keyed by
    /// server, so a restore undoes exactly the matching flap.
    flap_saved: HashMap<ServerId, f64>,
}

impl ClusterState {
    /// Fresh state from a base topology.
    pub fn new(topology: ClusterTopology) -> Self {
        ClusterState {
            background: vec![0.0; topology.n_links()],
            topology,
            jobs: HashMap::new(),
            failed: BTreeSet::new(),
            flap_saved: HashMap::new(),
        }
    }

    /// `true` if `gpu` is alive (not failed fail-stop).
    pub fn is_available(&self, gpu: GpuId) -> bool {
        !self.failed.contains(&gpu)
    }

    /// Workers currently failed, in id order.
    pub fn failed_workers(&self) -> Vec<GpuId> {
        self.failed.iter().copied().collect()
    }

    /// The subset of `candidates` that is alive, preserving order. Planners
    /// go through this view so they only ever place stages on survivors.
    pub fn available_of(&self, candidates: &[GpuId]) -> Vec<GpuId> {
        candidates
            .iter()
            .copied()
            .filter(|&g| self.is_available(g))
            .collect()
    }

    /// Every live worker in the cluster, in id order.
    pub fn available_workers(&self) -> Vec<GpuId> {
        (0..self.topology.n_gpus())
            .map(GpuId)
            .filter(|&g| self.is_available(g))
            .collect()
    }

    /// Background traffic (bytes/s) currently consuming `link`.
    pub fn background(&self, link: LinkId) -> f64 {
        self.background.get(link.slot()).copied().unwrap_or(0.0)
    }

    /// The background traffic entry of `link`; the table grows when an
    /// event names a server past the topology's last one.
    fn background_mut(&mut self, link: LinkId) -> &mut f64 {
        let slot = link.slot();
        if slot >= self.background.len() {
            self.background.resize(slot + 1, 0.0);
        }
        &mut self.background[slot]
    }

    /// Capacity of `link` left for the observed job, bytes/s.
    pub fn available_capacity(&self, link: LinkId) -> f64 {
        let cap = self.topology.link_capacity(link);
        let bg = self.background(link);
        (cap - bg).max(cap * 0.01) // a fair-share floor: never fully starved
    }

    /// Effective FLOP/s of a GPU for the observed job. A failed worker
    /// contributes zero.
    pub fn effective_flops(&self, gpu: GpuId) -> f64 {
        if self.failed.contains(&gpu) {
            return 0.0;
        }
        self.topology.gpu(gpu).effective_flops()
    }

    /// Usable device memory of a GPU at this instant, bytes. A failed
    /// worker holds nothing: planners consulting the fault timeline see
    /// zero capacity and route stages elsewhere.
    pub fn memory_bytes(&self, gpu: GpuId) -> f64 {
        if self.failed.contains(&gpu) {
            return 0.0;
        }
        self.topology.gpu(gpu).memory_bytes()
    }

    /// Apply one event.
    pub fn apply(&mut self, kind: &EventKind) {
        match kind {
            EventKind::SetAllLinksGbps(g) => self.topology.set_uniform_link_gbps(*g),
            EventKind::SetServerLinkGbps(s, g) => {
                self.topology.servers[s.0].nic_bytes_per_sec = gbps(*g);
            }
            EventKind::ScaleAllLinks(f) => {
                assert!(*f > 0.0, "bandwidth scale factor must be positive");
                for s in &mut self.topology.servers {
                    s.nic_bytes_per_sec *= f;
                }
            }
            EventKind::SetBackgroundTraffic(s, b) => {
                *self.background_mut(LinkId::Up(*s)) = *b;
                *self.background_mut(LinkId::Down(*s)) = *b;
            }
            EventKind::JobArrive {
                id,
                gpus,
                net_bytes_per_sec,
            } => {
                for &g in gpus {
                    self.topology.gpu_mut(g).colocated_jobs += 1;
                }
                for l in self.touched_links(gpus, *net_bytes_per_sec) {
                    *self.background_mut(l) += net_bytes_per_sec;
                }
                self.jobs.insert(*id, (gpus.clone(), *net_bytes_per_sec));
            }
            EventKind::SetGpuSharing(g, n) => {
                self.topology.gpu_mut(*g).colocated_jobs = (*n).max(1);
            }
            EventKind::WorkerFail(g) => {
                self.failed.insert(*g);
            }
            EventKind::WorkerRecover(g) => {
                self.failed.remove(g);
            }
            EventKind::LinkFlapDown(s, g) => {
                let nic = &mut self.topology.servers[s.0].nic_bytes_per_sec;
                // Only the first flap of a down/down/restore pile-up saves
                // the rate: restores unwind to the true pre-flap level.
                self.flap_saved.entry(*s).or_insert(*nic);
                *nic = gbps(*g);
            }
            EventKind::LinkFlapRestore(s) => {
                if let Some(rate) = self.flap_saved.remove(s) {
                    self.topology.servers[s.0].nic_bytes_per_sec = rate;
                }
            }
            EventKind::JobDepart(id) => {
                if let Some((gpus, net)) = self.jobs.remove(id) {
                    self.release(&gpus, net);
                }
            }
        }
    }

    /// Undo a background job's contention: one time-slice off each of its
    /// GPUs and its traffic off each touched server's links.
    fn release(&mut self, gpus: &[GpuId], net: f64) {
        for &g in gpus {
            let dev = self.topology.gpu_mut(g);
            dev.colocated_jobs = dev.colocated_jobs.saturating_sub(1).max(1);
        }
        for l in self.touched_links(gpus, net) {
            let b = self.background_mut(l);
            *b = (*b - net).max(0.0);
        }
    }

    /// The up and down links of every server `gpus` spans, in server
    /// order; none when the job sends nothing across the fabric.
    fn touched_links(&self, gpus: &[GpuId], net: f64) -> Vec<LinkId> {
        let mut touched: Vec<ServerId> = if net > 0.0 {
            gpus.iter().map(|&g| self.topology.server_of(g)).collect()
        } else {
            Vec::new()
        };
        touched.sort();
        touched.dedup();
        touched
            .into_iter()
            .flat_map(|s| [LinkId::Up(s), LinkId::Down(s)])
            .collect()
    }

    /// Run `f` on this state with job `id` departed, then put the job
    /// back. The departure is [`EventKind::JobDepart`] applied in place,
    /// and the return writes back exactly what it overwrote, so `f` sees
    /// the state the job sees without itself, with no clone of the whole
    /// fabric, and the state afterwards equals the state before, bit for
    /// bit. An unknown id departs nothing.
    pub fn with_detached<R>(&mut self, id: BgJobId, f: impl FnOnce(&ClusterState) -> R) -> R {
        let detached = self.detach(id);
        let out = f(self);
        self.restore(detached);
        out
    }

    /// Apply [`EventKind::JobDepart`] for `id` and keep what it overwrote:
    /// the job's record, its GPUs' `colocated_jobs` and the touched links'
    /// background values.
    fn detach(&mut self, id: BgJobId) -> Detached {
        let Some((gpus, net)) = self.jobs.remove(&id) else {
            return Detached {
                id,
                job: None,
                colocated: Vec::new(),
                background: Vec::new(),
            };
        };
        let colocated = gpus
            .iter()
            .map(|&g| self.topology.gpu(g).colocated_jobs)
            .collect();
        let background = self
            .touched_links(&gpus, net)
            .into_iter()
            .map(|l| (l, self.background(l)))
            .collect();
        self.release(&gpus, net);
        Detached {
            id,
            job: Some((gpus, net)),
            colocated,
            background,
        }
    }

    /// Undo [`ClusterState::detach`] exactly.
    fn restore(&mut self, detached: Detached) {
        let Detached {
            id,
            job,
            colocated,
            background,
        } = detached;
        let Some((gpus, net)) = job else { return };
        for (&g, &c) in gpus.iter().zip(&colocated) {
            self.topology.gpu_mut(g).colocated_jobs = c;
        }
        for (l, b) in background {
            *self.background_mut(l) = b;
        }
        self.jobs.insert(id, (gpus, net));
    }

    /// Replay a timeline up to and including time `t` onto a fresh state.
    pub fn at_time(base: ClusterTopology, timeline: &ResourceTimeline, t: f64) -> Self {
        let mut st = ClusterState::new(base);
        for e in timeline.events() {
            if e.time <= t {
                st.apply(&e.kind);
            } else {
                break;
            }
        }
        st
    }
}

/// What [`ClusterState::detach`] overwrote, for [`ClusterState::restore`].
struct Detached {
    id: BgJobId,
    /// The job's record, `None` if it was not live.
    job: Option<(Vec<GpuId>, f64)>,
    /// `colocated_jobs` of the job's GPUs before the release, in its GPU
    /// order.
    colocated: Vec<u32>,
    /// Background value of each touched link.
    background: Vec<(LinkId, f64)>,
}

/// Stochastic multi-tenant churn: Poisson arrivals of background jobs with
/// exponential durations, random GPU footprints and network usage.
#[derive(Debug, Clone)]
pub struct BackgroundJobGenerator {
    /// Mean arrivals per second.
    pub arrival_rate: f64,
    /// Mean job duration in seconds.
    pub mean_duration: f64,
    /// Max GPUs a background job grabs.
    pub max_gpus: usize,
    /// Network bytes/s a distributed background job consumes per server.
    pub net_bytes_per_sec: f64,
}

impl BackgroundJobGenerator {
    /// Generate a timeline of arrivals/departures over `[0, horizon)`.
    pub fn generate(&self, topo: &ClusterTopology, horizon: f64, seed: u64) -> ResourceTimeline {
        assert!(self.arrival_rate > 0.0 && self.mean_duration > 0.0);
        let mut rng = Rng::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut t = 0.0;
        let mut next_id = 0u64;
        loop {
            // Exponential inter-arrival.
            let u: f64 = rng.gen_range(1e-12..1.0);
            t += -u.ln() / self.arrival_rate;
            if t >= horizon {
                break;
            }
            let n = rng.gen_range(1..=self.max_gpus.min(topo.n_gpus()));
            let mut gpus: Vec<GpuId> = (0..topo.n_gpus()).map(GpuId).collect();
            // Fisher-Yates prefix shuffle for the footprint.
            for i in 0..n {
                let j = rng.gen_range(i..gpus.len());
                gpus.swap(i, j);
            }
            gpus.truncate(n);
            let id = BgJobId(next_id);
            next_id += 1;
            let ud: f64 = rng.gen_range(1e-12..1.0);
            let dur = -ud.ln() * self.mean_duration;
            let net = if n > 1 { self.net_bytes_per_sec } else { 0.0 };
            events.push(ResourceEvent {
                time: t,
                kind: EventKind::JobArrive {
                    id,
                    gpus,
                    net_bytes_per_sec: net,
                },
            });
            if t + dur < horizon {
                events.push(ResourceEvent {
                    time: t + dur,
                    kind: EventKind::JobDepart(id),
                });
            }
        }
        ResourceTimeline::new(events)
    }
}

/// A day-night load pattern on top of [`BackgroundJobGenerator`]: arrival
/// intensity follows a raised cosine with the given period, peaking at
/// `peak_factor` x the base rate (shared clusters see exactly this kind of
/// office-hours swell in the study the paper cites, ref. 7).
#[derive(Debug, Clone)]
pub struct DiurnalGenerator {
    /// The underlying job mix.
    pub base: BackgroundJobGenerator,
    /// Seconds per day-night cycle.
    pub period: f64,
    /// Peak-to-base arrival intensity ratio (>= 1).
    pub peak_factor: f64,
}

impl DiurnalGenerator {
    /// Generate a timeline over `[0, horizon)` by thinning a peak-rate
    /// Poisson process against the diurnal intensity profile.
    pub fn generate(&self, topo: &ClusterTopology, horizon: f64, seed: u64) -> ResourceTimeline {
        assert!(self.period > 0.0 && self.peak_factor >= 1.0);
        let peak_rate = self.base.arrival_rate * self.peak_factor;
        let mut rng = Rng::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut t = 0.0;
        let mut next_id = 500_000u64;
        loop {
            let u: f64 = rng.gen_range(1e-12..1.0);
            t += -u.ln() / peak_rate;
            if t >= horizon {
                break;
            }
            // Thinning: accept proportionally to the instantaneous rate.
            let phase = (t / self.period) * std::f64::consts::TAU;
            let intensity =
                (1.0 + (self.peak_factor - 1.0) * 0.5 * (1.0 - phase.cos())) / self.peak_factor;
            if rng.gen::<f64>() > intensity {
                continue;
            }
            let n = rng.gen_range(1..=self.base.max_gpus.min(topo.n_gpus()));
            let mut gpus: Vec<GpuId> = (0..topo.n_gpus()).map(GpuId).collect();
            for i in 0..n {
                let j = rng.gen_range(i..gpus.len());
                gpus.swap(i, j);
            }
            gpus.truncate(n);
            let id = BgJobId(next_id);
            next_id += 1;
            let ud: f64 = rng.gen_range(1e-12..1.0);
            let dur = -ud.ln() * self.base.mean_duration;
            let net = if n > 1 {
                self.base.net_bytes_per_sec
            } else {
                0.0
            };
            events.push(ResourceEvent {
                time: t,
                kind: EventKind::JobArrive {
                    id,
                    gpus,
                    net_bytes_per_sec: net,
                },
            });
            if t + dur < horizon {
                events.push(ResourceEvent {
                    time: t + dur,
                    kind: EventKind::JobDepart(id),
                });
            }
        }
        ResourceTimeline::new(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuKind;

    fn topo() -> ClusterTopology {
        ClusterTopology::single_switch(3, 2, GpuKind::P100, 25.0)
    }

    #[test]
    fn static_state_mirrors_topology() {
        let st = ClusterState::new(topo());
        assert!((st.available_capacity(LinkId::Up(ServerId(0))) - gbps(25.0)).abs() < 1.0);
        assert!((st.effective_flops(GpuId(0)) - GpuKind::P100.peak_flops()).abs() < 1.0);
    }

    #[test]
    fn bandwidth_staircase_replays() {
        let mut tl = ResourceTimeline::empty();
        tl.push(20.0, EventKind::SetAllLinksGbps(25.0));
        tl.push(40.0, EventKind::SetAllLinksGbps(40.0));
        tl.push(60.0, EventKind::SetAllLinksGbps(100.0));
        let base = ClusterTopology::paper_testbed(10.0);
        for (t, want) in [(0.0, 10.0), (20.0, 25.0), (41.0, 40.0), (99.0, 100.0)] {
            let st = ClusterState::at_time(base.clone(), &tl, t);
            assert!(
                (st.available_capacity(LinkId::Up(ServerId(0))) - gbps(want)).abs() < 1.0,
                "t={t}"
            );
        }
    }

    #[test]
    fn job_arrival_and_departure_round_trip() {
        let mut st = ClusterState::new(topo());
        let id = BgJobId(7);
        st.apply(&EventKind::JobArrive {
            id,
            gpus: vec![GpuId(0), GpuId(2)],
            net_bytes_per_sec: gbps(5.0),
        });
        assert_eq!(st.topology.gpu(GpuId(0)).colocated_jobs, 2);
        assert_eq!(st.topology.gpu(GpuId(1)).colocated_jobs, 1);
        assert!(st.available_capacity(LinkId::Up(ServerId(0))) < gbps(25.0));
        st.apply(&EventKind::JobDepart(id));
        assert_eq!(st.topology.gpu(GpuId(0)).colocated_jobs, 1);
        assert!((st.available_capacity(LinkId::Up(ServerId(0))) - gbps(25.0)).abs() < 1.0);
    }

    /// Every field of a state as exact bits, in a canonical order (the
    /// hash maps sorted by key).
    fn fingerprint(st: &ClusterState) -> String {
        let bg: Vec<String> = st
            .background
            .iter()
            .map(|b| format!("{:016x}", b.to_bits()))
            .collect();
        let mut jobs: Vec<String> = st
            .jobs
            .iter()
            .map(|(id, (g, n))| format!("{}:{g:?}:{:016x}", id.0, n.to_bits()))
            .collect();
        jobs.sort();
        let mut flaps: Vec<String> = st
            .flap_saved
            .iter()
            .map(|(s, r)| format!("{}={:016x}", s.0, r.to_bits()))
            .collect();
        flaps.sort();
        let gpus: Vec<String> = st
            .topology
            .gpus
            .iter()
            .map(|g| format!("{}/{:016x}", g.colocated_jobs, g.mem_bytes.to_bits()))
            .collect();
        let nics: Vec<String> = st
            .topology
            .servers
            .iter()
            .map(|s| format!("{:016x}", s.nic_bytes_per_sec.to_bits()))
            .collect();
        format!(
            "{gpus:?} {nics:?} {bg:?} {jobs:?} {:?} {flaps:?}",
            st.failed
        )
    }

    /// Detach `id` from `st`: the view must equal a clone with the job
    /// departed, and `st` must come back bit for bit.
    fn assert_detach_round_trips(st: &mut ClusterState, id: BgJobId) {
        let before = fingerprint(st);
        let mut departed = st.clone();
        departed.apply(&EventKind::JobDepart(id));
        let view = st.with_detached(id, fingerprint);
        assert_eq!(view, fingerprint(&departed), "view of {id:?}");
        assert_eq!(fingerprint(st), before, "restore of {id:?}");
    }

    #[test]
    fn detach_then_restore_is_exact() {
        // 4 servers x 2 GPUs, so jobs can share servers without sharing
        // GPUs.
        let mut st = ClusterState::new(ClusterTopology::single_switch(4, 2, GpuKind::P100, 25.0));
        let arrive = |id, gpus: &[usize], net: f64| EventKind::JobArrive {
            id: BgJobId(id),
            gpus: gpus.iter().map(|&g| GpuId(g)).collect(),
            net_bytes_per_sec: net,
        };
        // Overlapping servers (and GPU 2) with traffic whose sums round.
        st.apply(&arrive(1, &[0, 2, 3], gbps(0.3)));
        st.apply(&arrive(2, &[2, 4], gbps(0.7) / 3.0));
        // No traffic at all.
        st.apply(&arrive(3, &[1, 2], 0.0));
        // A single-server job with traffic: it touches one server.
        st.apply(&arrive(4, &[6, 7], gbps(1.1)));
        // A link whose background is later set below a job's traffic, so
        // the departure clamps at zero; a GPU whose sharing is pinned, so
        // the departure saturates at one.
        st.apply(&arrive(5, &[5, 7], gbps(2.0)));
        st.apply(&EventKind::SetBackgroundTraffic(ServerId(2), gbps(0.5)));
        st.apply(&EventKind::SetGpuSharing(GpuId(5), 1));
        st.apply(&EventKind::WorkerFail(GpuId(3)));
        st.apply(&EventKind::LinkFlapDown(ServerId(1), 1.0));
        for id in 1..=5 {
            assert_detach_round_trips(&mut st, BgJobId(id));
        }
        // An unknown id detaches nothing.
        let before = fingerprint(&st);
        assert_eq!(st.with_detached(BgJobId(99), fingerprint), before);
        assert_eq!(fingerprint(&st), before);
    }

    #[test]
    fn detach_restore_matches_a_clone_under_random_churn() {
        let mut rng = Rng::seed_from_u64(20);
        let topo = ClusterTopology::single_switch(5, 3, GpuKind::V100, 40.0);
        let mut st = ClusterState::new(topo);
        let mut live: Vec<u64> = Vec::new();
        for step in 0..300u64 {
            if live.is_empty() || rng.gen_range(0..3u32) > 0 {
                let n = rng.gen_range(1..=6usize);
                let gpus = (0..n).map(|_| GpuId(rng.gen_range(0..15usize))).collect();
                let net = if rng.gen_range(0..4u32) == 0 {
                    0.0
                } else {
                    rng.gen_range(1e6..3e9)
                };
                st.apply(&EventKind::JobArrive {
                    id: BgJobId(step),
                    gpus,
                    net_bytes_per_sec: net,
                });
                live.push(step);
            } else {
                let k = live.swap_remove(rng.gen_range(0..live.len()));
                st.apply(&EventKind::JobDepart(BgJobId(k)));
            }
            let probe = live[rng.gen_range(0..live.len())];
            assert_detach_round_trips(&mut st, BgJobId(probe));
        }
    }

    #[test]
    fn background_traffic_leaves_fair_share_floor() {
        let mut st = ClusterState::new(topo());
        st.apply(&EventKind::SetBackgroundTraffic(ServerId(1), gbps(500.0)));
        let avail = st.available_capacity(LinkId::Up(ServerId(1)));
        assert!(avail > 0.0, "must never be fully starved");
    }

    #[test]
    fn scale_halves_bandwidth() {
        let mut st = ClusterState::new(topo());
        st.apply(&EventKind::ScaleAllLinks(0.5));
        assert!((st.available_capacity(LinkId::Down(ServerId(2))) - gbps(12.5)).abs() < 1.0);
    }

    #[test]
    fn events_between_is_half_open() {
        let mut tl = ResourceTimeline::empty();
        tl.push(1.0, EventKind::SetAllLinksGbps(25.0));
        tl.push(2.0, EventKind::SetAllLinksGbps(40.0));
        assert_eq!(tl.events_between(0.0, 1.0).len(), 1);
        assert_eq!(tl.events_between(1.0, 2.0).len(), 1);
        assert_eq!(tl.events_between(2.0, 9.0).len(), 0);
        assert_eq!(tl.next_event_after(1.0), Some(2.0));
        assert_eq!(tl.next_event_after(2.0), None);
    }

    #[test]
    fn coincident_events_keep_insertion_order() {
        // Regression: `push` used to re-sort the whole vec; the sort was
        // stable so this passed by accident. Now insertion order at equal
        // timestamps is an explicit contract that fault + bandwidth events
        // at the same instant rely on.
        let mut tl = ResourceTimeline::empty();
        tl.push(5.0, EventKind::SetAllLinksGbps(1.0));
        tl.push(2.0, EventKind::WorkerFail(GpuId(0)));
        tl.push(5.0, EventKind::SetAllLinksGbps(2.0));
        tl.push(5.0, EventKind::WorkerRecover(GpuId(0)));
        tl.push(1.0, EventKind::SetAllLinksGbps(9.0));
        let at5: Vec<_> = tl.events_between(2.0, 5.0).iter().collect();
        assert_eq!(at5.len(), 3);
        assert!(matches!(at5[0].kind, EventKind::SetAllLinksGbps(g) if g == 1.0));
        assert!(matches!(at5[1].kind, EventKind::SetAllLinksGbps(g) if g == 2.0));
        assert!(matches!(at5[2].kind, EventKind::WorkerRecover(GpuId(0))));
        // Replay applies them in the same order: the last SetAllLinksGbps
        // wins, and the worker ends alive.
        let st = ClusterState::at_time(topo(), &tl, 5.0);
        assert!((st.available_capacity(LinkId::Up(ServerId(0))) - gbps(2.0)).abs() < 1.0);
        assert!(st.is_available(GpuId(0)));
        assert_eq!(tl.next_event_after(2.0), Some(5.0));
    }

    #[test]
    fn worker_failure_leaves_availability_view() {
        let mut st = ClusterState::new(topo());
        assert_eq!(st.available_workers().len(), 6);
        st.apply(&EventKind::WorkerFail(GpuId(2)));
        assert!(!st.is_available(GpuId(2)));
        assert_eq!(st.effective_flops(GpuId(2)), 0.0);
        assert_eq!(st.memory_bytes(GpuId(2)), 0.0);
        assert!(st.memory_bytes(GpuId(1)) > 0.0);
        assert_eq!(st.failed_workers(), vec![GpuId(2)]);
        let avail = st.available_of(&[GpuId(1), GpuId(2), GpuId(3)]);
        assert_eq!(avail, vec![GpuId(1), GpuId(3)]);
        st.apply(&EventKind::WorkerRecover(GpuId(2)));
        assert!(st.is_available(GpuId(2)));
        assert!(st.effective_flops(GpuId(2)) > 0.0);
        assert_eq!(st.available_workers().len(), 6);
    }

    #[test]
    fn link_flap_restores_pre_flap_rate_across_interleaved_events() {
        let mut st = ClusterState::new(topo());
        st.apply(&EventKind::SetServerLinkGbps(ServerId(1), 40.0));
        st.apply(&EventKind::LinkFlapDown(ServerId(1), 0.5));
        assert!((st.available_capacity(LinkId::Up(ServerId(1))) - gbps(0.5)).abs() < 1.0);
        // A second down before the restore must not clobber the saved rate.
        st.apply(&EventKind::LinkFlapDown(ServerId(1), 0.25));
        st.apply(&EventKind::LinkFlapRestore(ServerId(1)));
        assert!((st.available_capacity(LinkId::Up(ServerId(1))) - gbps(40.0)).abs() < 1.0);
        // Restore without a matching down is a no-op.
        st.apply(&EventKind::LinkFlapRestore(ServerId(1)));
        assert!((st.available_capacity(LinkId::Up(ServerId(1))) - gbps(40.0)).abs() < 1.0);
    }

    #[test]
    fn gpu_sharing_override_and_failure_injection() {
        let mut st = ClusterState::new(topo());
        st.apply(&EventKind::SetGpuSharing(GpuId(3), 1000));
        assert!(st.effective_flops(GpuId(3)) < st.effective_flops(GpuId(0)) / 100.0);
        st.apply(&EventKind::SetGpuSharing(GpuId(3), 0));
        assert_eq!(st.topology.gpu(GpuId(3)).colocated_jobs, 1);
    }

    #[test]
    fn diurnal_generator_concentrates_arrivals_at_the_peak() {
        let g = DiurnalGenerator {
            base: BackgroundJobGenerator {
                arrival_rate: 0.5,
                mean_duration: 10.0,
                max_gpus: 3,
                net_bytes_per_sec: 0.0,
            },
            period: 200.0,
            peak_factor: 6.0,
        };
        let t = topo();
        let tl = g.generate(&t, 1000.0, 9);
        // Arrivals in the peak half-cycle (phase near pi) vs the trough.
        let in_window = |lo: f64, hi: f64| {
            tl.events()
                .iter()
                .filter(|e| matches!(e.kind, EventKind::JobArrive { .. }))
                .filter(|e| {
                    let phase = (e.time % 200.0) / 200.0;
                    phase >= lo && phase < hi
                })
                .count()
        };
        let peak = in_window(0.25, 0.75);
        let trough = in_window(0.0, 0.25) + in_window(0.75, 1.0);
        assert!(
            peak > 2 * trough,
            "diurnal peak {peak} should dwarf trough {trough}"
        );
        // Deterministic by seed.
        let tl2 = g.generate(&t, 1000.0, 9);
        assert_eq!(tl.events().len(), tl2.events().len());
    }

    #[test]
    fn generator_is_deterministic_and_bounded() {
        let g = BackgroundJobGenerator {
            arrival_rate: 0.1,
            mean_duration: 30.0,
            max_gpus: 4,
            net_bytes_per_sec: gbps(2.0),
        };
        let t = topo();
        let a = g.generate(&t, 600.0, 42);
        let b = g.generate(&t, 600.0, 42);
        assert_eq!(a.events().len(), b.events().len());
        assert!(!a.events().is_empty());
        assert!(a.events().iter().all(|e| e.time < 600.0));
        // Replaying the whole thing never drops a GPU below 1 job.
        let st = ClusterState::at_time(t, &a, 600.0);
        assert!(st.topology.gpus.iter().all(|g| g.colocated_jobs >= 1));
    }
}
