//! Randomized-but-deterministic tests for the cluster substrate:
//! fair-share feasibility, timeline replay invariants and the dense
//! background table, driven by the in-tree seeded PRNG so every run
//! checks the same cases.

use ap_cluster::dynamics::BgJobId;
use ap_cluster::gpu::GpuKind;
use std::collections::HashMap;

use ap_cluster::{
    gbps, max_min_fair_rates, ClusterState, ClusterTopology, EventKind, FairShare, Flow, GpuId,
    LinkId, ResourceTimeline, ServerId,
};
use ap_rng::Rng;

/// Random flow over a small single-switch cluster.
fn random_flow(rng: &mut Rng, n_servers: usize) -> Flow {
    let s = rng.gen_range(0..n_servers);
    let d = rng.gen_range(0..n_servers);
    let path = if s == d {
        vec![]
    } else {
        vec![
            LinkId::Up(ServerId(s)).slot(),
            LinkId::Down(ServerId(d)).slot(),
        ]
    };
    let demand = if rng.gen::<bool>() {
        gbps(rng.gen_range(1.0..50.0))
    } else {
        f64::INFINITY
    };
    Flow { path, demand }
}

/// No link is ever oversubscribed and no flow exceeds its demand.
#[test]
fn fair_share_is_feasible() {
    let mut fs = FairShare::default();
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0xFA1E + case);
        let n_flows = rng.gen_range(1..12usize);
        let flows: Vec<Flow> = (0..n_flows).map(|_| random_flow(&mut rng, 4)).collect();
        let cap_gbps = rng.gen_range(1.0..100.0);
        let caps = vec![gbps(cap_gbps); 8];
        let rates = max_min_fair_rates(&flows, &caps, gbps(96.0), &mut fs);
        assert_eq!(rates.len(), flows.len());
        // Per-flow demand respected.
        for (f, &r) in flows.iter().zip(rates) {
            assert!(r <= f.demand + 1.0, "case {case}: rate {r} over demand");
            assert!(r >= 0.0);
        }
        // Per-link feasibility.
        for s in 0..4 {
            for l in [LinkId::Up(ServerId(s)), LinkId::Down(ServerId(s))] {
                let used: f64 = flows
                    .iter()
                    .zip(rates)
                    .filter(|(f, _)| f.path.contains(&l.slot()))
                    .map(|(_, &r)| r)
                    .sum();
                assert!(
                    used <= gbps(cap_gbps) + 1.0,
                    "case {case}: link {l:?} oversubscribed: {used} > {}",
                    gbps(cap_gbps)
                );
            }
        }
    }
}

/// Every network-crossing elastic flow gets strictly positive rate
/// (work conservation / no starvation).
#[test]
fn fair_share_never_starves() {
    let mut fs = FairShare::default();
    for case in 0..128u64 {
        let mut rng = Rng::seed_from_u64(0x57A4 + case);
        let n = rng.gen_range(1..10usize);
        let cap_gbps = rng.gen_range(1.0..100.0);
        let flows: Vec<Flow> = (0..n)
            .map(|i| {
                Flow::elastic(vec![
                    LinkId::Up(ServerId(0)).slot(),
                    LinkId::Down(ServerId(1 + i % 3)).slot(),
                ])
            })
            .collect();
        let caps = vec![gbps(cap_gbps); 8];
        let rates = max_min_fair_rates(&flows, &caps, gbps(96.0), &mut fs);
        for &r in rates {
            assert!(r > 0.0, "case {case}: starved flow");
        }
    }
}

/// The progressive fill as first written: a `HashMap` residual table and
/// a fresh active list per round. Kept here only as the reference the
/// allocation-free [`max_min_fair_rates`] must match bit for bit.
fn reference_fill<F>(flows: &[Flow], capacity: F, local_rate: f64) -> Vec<f64>
where
    F: Fn(usize) -> f64,
{
    let n = flows.len();
    let mut rates = vec![0.0_f64; n];
    if n == 0 {
        return rates;
    }

    let mut residual: HashMap<usize, f64> = HashMap::new();
    for f in flows {
        for &l in &f.path {
            residual.entry(l).or_insert_with(|| capacity(l));
        }
    }

    let mut frozen = vec![false; n];
    for (i, f) in flows.iter().enumerate() {
        if f.path.is_empty() {
            rates[i] = f.demand.min(local_rate);
            frozen[i] = true;
        }
    }

    loop {
        let active: Vec<usize> = (0..n).filter(|&i| !frozen[i]).collect();
        if active.is_empty() {
            break;
        }

        let mut min_incr = f64::INFINITY;
        for (&l, &cap) in &residual {
            let crossers = active
                .iter()
                .filter(|&&i| flows[i].path.contains(&l))
                .count();
            if crossers > 0 && cap.is_finite() {
                min_incr = min_incr.min(cap / crossers as f64);
            }
        }
        for &i in &active {
            let remaining = flows[i].demand - rates[i];
            min_incr = min_incr.min(remaining);
        }
        if !min_incr.is_finite() {
            for &i in &active {
                rates[i] = f64::INFINITY;
            }
            break;
        }
        let incr = min_incr.max(0.0);

        for &i in &active {
            rates[i] += incr;
            for &l in &flows[i].path {
                if let Some(c) = residual.get_mut(&l) {
                    *c -= incr;
                }
            }
        }

        for &i in &active {
            let at_demand = rates[i] >= flows[i].demand - 1e-9;
            let on_saturated = flows[i]
                .path
                .iter()
                .any(|l| residual.get(l).is_some_and(|&c| c <= 1e-6));
            if at_demand || on_saturated {
                frozen[i] = true;
            }
        }
    }

    rates
}

/// Random path over `n_servers`, as link slots: empty (node-local), the
/// usual uplink+downlink pair, or a ring-style multi-hop list that may
/// repeat a link.
fn random_path(rng: &mut Rng, n_servers: usize) -> Vec<usize> {
    let link = |rng: &mut Rng| {
        let s = ServerId(rng.gen_range(0..n_servers));
        if rng.gen::<bool>() {
            LinkId::Up(s).slot()
        } else {
            LinkId::Down(s).slot()
        }
    };
    match rng.gen_range(0..4u32) {
        0 => Vec::new(),
        1 | 2 => {
            let s = rng.gen_range(0..n_servers);
            let d = (s + rng.gen_range(1..n_servers)) % n_servers;
            vec![
                LinkId::Up(ServerId(s)).slot(),
                LinkId::Down(ServerId(d)).slot(),
            ]
        }
        _ => (0..rng.gen_range(1..6usize)).map(|_| link(rng)).collect(),
    }
}

/// The dense, buffer-reusing fill returns exactly the reference fill's
/// bits: 0, 1 and many flows, local and crossing paths, finite and
/// infinite demands, shared uplinks and downlinks, and per-link
/// capacities that include a zero and an infinite link. One buffer serves
/// every case, so stale state from a larger solve would show.
#[test]
fn fill_matches_reference_bit_for_bit() {
    let mut fs = FairShare::default();
    for case in 0..512u64 {
        let mut rng = Rng::seed_from_u64(0xB175 + case);
        let n_servers = rng.gen_range(2..6usize);
        let n_flows = match case % 4 {
            0 => 0,
            1 => 1,
            _ => rng.gen_range(2..24usize),
        };
        let flows: Vec<Flow> = (0..n_flows)
            .map(|_| {
                let path = random_path(&mut rng, n_servers);
                let demand = if rng.gen::<bool>() {
                    gbps(rng.gen_range(0.5..40.0))
                } else {
                    f64::INFINITY
                };
                Flow { path, demand }
            })
            .collect();
        let caps: Vec<f64> = (0..2 * n_servers)
            .map(|_| match rng.gen_range(0..10u32) {
                0 => 0.0,
                1 => f64::INFINITY,
                _ => gbps(rng.gen_range(1.0..100.0)),
            })
            .collect();
        let local_rate = gbps(rng.gen_range(50.0..200.0));
        let want = reference_fill(&flows, |l| caps[l], local_rate);
        let got = max_min_fair_rates(&flows, &caps, local_rate, &mut fs);
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(&want), "case {case}: {flows:?}");
    }
}

/// Replaying any prefix of arrivals/departures keeps GPU job counts >= 1
/// and link background >= 0.
#[test]
fn timeline_replay_keeps_invariants() {
    for seed in 0..200u64 {
        let topo = ClusterTopology::single_switch(4, 2, GpuKind::P100, 25.0);
        let gen = ap_cluster::BackgroundJobGenerator {
            arrival_rate: 0.2,
            mean_duration: 20.0,
            max_gpus: 5,
            net_bytes_per_sec: gbps(3.0),
        };
        let tl = gen.generate(&topo, 300.0, seed);
        for t in [0.0, 50.0, 150.0, 299.0, 1000.0] {
            let st = ClusterState::at_time(topo.clone(), &tl, t);
            assert!(st.topology.gpus.iter().all(|g| g.colocated_jobs >= 1));
            for s in 0..4 {
                for l in [LinkId::Up(ServerId(s)), LinkId::Down(ServerId(s))] {
                    assert!(st.background(l) >= 0.0);
                }
            }
            for s in 0..4 {
                assert!(st.available_capacity(LinkId::Up(ServerId(s))) > 0.0);
            }
        }
    }
}

/// Bandwidth events override each other in time order regardless of
/// insertion order.
#[test]
fn timeline_order_independent_of_insertion() {
    let evs = [
        (10.0, EventKind::SetAllLinksGbps(25.0)),
        (20.0, EventKind::SetAllLinksGbps(40.0)),
        (30.0, EventKind::SetAllLinksGbps(100.0)),
    ];
    for case in 0..24u64 {
        let mut rng = Rng::seed_from_u64(0x0DE2 + case);
        let mut perm = vec![0usize, 1, 2];
        rng.shuffle(&mut perm);
        let mut tl = ResourceTimeline::empty();
        for &i in &perm {
            let (t, k) = &evs[i];
            tl.push(*t, k.clone());
        }
        let base = ClusterTopology::paper_testbed(10.0);
        let st = ClusterState::at_time(base, &tl, 25.0);
        assert!(
            (st.available_capacity(LinkId::Up(ServerId(0))) - gbps(40.0)).abs() < 1.0,
            "case {case}: insertion order {perm:?} changed replay"
        );
        let _ = GpuId(0);
    }
}

/// The background table as a plain `HashMap` from link to bytes/s, with
/// the departure rule written out: the reference the dense per-slot table
/// in [`ClusterState`] must replay bit for bit.
#[derive(Clone, Default)]
struct BackgroundModel {
    traffic: HashMap<LinkId, f64>,
    jobs: HashMap<u64, (Vec<LinkId>, f64)>,
}

impl BackgroundModel {
    fn apply(&mut self, topo: &ClusterTopology, kind: &EventKind) {
        match kind {
            EventKind::SetBackgroundTraffic(s, b) => {
                self.traffic.insert(LinkId::Up(*s), *b);
                self.traffic.insert(LinkId::Down(*s), *b);
            }
            EventKind::JobArrive {
                id,
                gpus,
                net_bytes_per_sec: net,
            } => {
                let mut servers: Vec<ServerId> = if *net > 0.0 {
                    gpus.iter().map(|&g| topo.server_of(g)).collect()
                } else {
                    Vec::new()
                };
                servers.sort();
                servers.dedup();
                let links: Vec<LinkId> = servers
                    .into_iter()
                    .flat_map(|s| [LinkId::Up(s), LinkId::Down(s)])
                    .collect();
                for &l in &links {
                    *self.traffic.entry(l).or_insert(0.0) += net;
                }
                self.jobs.insert(id.0, (links, *net));
            }
            EventKind::JobDepart(id) => {
                if let Some((links, net)) = self.jobs.remove(&id.0) {
                    for l in links {
                        if let Some(b) = self.traffic.get_mut(&l) {
                            *b = (*b - net).max(0.0);
                        }
                    }
                }
            }
            other => unreachable!("not a background event: {other:?}"),
        }
    }

    fn available_capacity(&self, topo: &ClusterTopology, link: LinkId) -> f64 {
        let cap = topo.link_capacity(link);
        let bg = self.traffic.get(&link).copied().unwrap_or(0.0);
        (cap - bg).max(cap * 0.01)
    }
}

/// Every link's available capacity and background, `st` against `model`,
/// as exact bits.
fn assert_links_match(st: &ClusterState, model: &BackgroundModel, what: &str) {
    let topo = &st.topology;
    for s in 0..topo.servers.len() {
        for l in [LinkId::Up(ServerId(s)), LinkId::Down(ServerId(s))] {
            assert_eq!(
                st.available_capacity(l).to_bits(),
                model.available_capacity(topo, l).to_bits(),
                "{what}: available capacity of {l:?}"
            );
            let want = model.traffic.get(&l).copied().unwrap_or(0.0);
            assert_eq!(st.background(l).to_bits(), want.to_bits(), "{what}: {l:?}");
        }
    }
}

/// Random arrivals (with and without traffic, on shared servers),
/// departures (of live, departed and unknown jobs) and background
/// settings, with `with_detached` views in between: the dense table's
/// capacities equal a replay on a `HashMap` model on every link, inside
/// each view (the model with the job departed) and after it (the state
/// put back exactly).
#[test]
fn dense_background_matches_a_hash_map_replay() {
    for seed in 0..64u64 {
        let mut rng = Rng::seed_from_u64(0xBA6D + seed);
        let n_servers = rng.gen_range(1..=6usize);
        let per = rng.gen_range(1..=3usize);
        let mut topo = ClusterTopology::single_switch(n_servers, per, GpuKind::V100, 25.0);
        for s in &mut topo.servers {
            s.nic_bytes_per_sec = gbps(rng.gen_range(1.0..100.0));
        }
        let mut st = ClusterState::new(topo.clone());
        let mut model = BackgroundModel::default();
        let mut next_id = 0u64;
        for step in 0..120 {
            let kind = match rng.gen_range(0..6u32) {
                0..=2 => {
                    let n = rng.gen_range(1..=4usize);
                    let gpus = (0..n)
                        .map(|_| GpuId(rng.gen_range(0..topo.n_gpus())))
                        .collect();
                    let net = match rng.gen_range(0..4u32) {
                        0 => 0.0,
                        _ => gbps(rng.gen_range(0.1..60.0)),
                    };
                    next_id += 1;
                    EventKind::JobArrive {
                        id: BgJobId(next_id),
                        gpus,
                        net_bytes_per_sec: net,
                    }
                }
                3 | 4 => EventKind::JobDepart(BgJobId(rng.gen_range(0..=next_id + 1))),
                _ => EventKind::SetBackgroundTraffic(
                    ServerId(rng.gen_range(0..n_servers)),
                    gbps(rng.gen_range(0.0..120.0)),
                ),
            };
            st.apply(&kind);
            model.apply(&topo, &kind);
            let what = format!("seed {seed} step {step}");
            assert_links_match(&st, &model, &what);
            if rng.gen::<bool>() {
                let id = BgJobId(rng.gen_range(0..=next_id + 1));
                let mut departed = model.clone();
                departed.apply(&topo, &EventKind::JobDepart(id));
                st.with_detached(id, |view| {
                    assert_links_match(view, &departed, &format!("{what} without {id:?}"));
                });
                assert_links_match(&st, &model, &format!("{what} after {id:?} returned"));
            }
        }
    }
}
