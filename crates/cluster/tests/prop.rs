//! Randomized-but-deterministic tests for the cluster substrate:
//! fair-share feasibility and timeline replay invariants, driven by the
//! in-tree seeded PRNG so every run checks the same cases.

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
    let links = if s == d {
        vec![]
    } else {
        vec![LinkId::Up(ServerId(s)), LinkId::Down(ServerId(d))]
    };
    let demand = if rng.gen::<bool>() {
        gbps(rng.gen_range(1.0..50.0))
    } else {
        f64::INFINITY
    };
    Flow { links, demand }
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
        let rates = max_min_fair_rates(&flows, |_| gbps(cap_gbps), gbps(96.0), &mut fs);
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
                    .filter(|(f, _)| f.links.contains(&l))
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
                    LinkId::Up(ServerId(0)),
                    LinkId::Down(ServerId(1 + i % 3)),
                ])
            })
            .collect();
        let rates = max_min_fair_rates(&flows, |_| gbps(cap_gbps), gbps(96.0), &mut fs);
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
    F: Fn(LinkId) -> f64,
{
    let n = flows.len();
    let mut rates = vec![0.0_f64; n];
    if n == 0 {
        return rates;
    }

    let mut residual: HashMap<LinkId, f64> = HashMap::new();
    for f in flows {
        for &l in &f.links {
            residual.entry(l).or_insert_with(|| capacity(l));
        }
    }

    let mut frozen = vec![false; n];
    for (i, f) in flows.iter().enumerate() {
        if f.links.is_empty() {
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
                .filter(|&&i| flows[i].links.contains(&l))
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
            for &l in &flows[i].links {
                if let Some(c) = residual.get_mut(&l) {
                    *c -= incr;
                }
            }
        }

        for &i in &active {
            let at_demand = rates[i] >= flows[i].demand - 1e-9;
            let on_saturated = flows[i]
                .links
                .iter()
                .any(|l| residual.get(l).is_some_and(|&c| c <= 1e-6));
            if at_demand || on_saturated {
                frozen[i] = true;
            }
        }
    }

    rates
}

/// Random path over `n_servers`: empty (node-local), the usual
/// uplink+downlink pair, or a ring-style multi-hop list that may repeat a
/// link.
fn random_path(rng: &mut Rng, n_servers: usize) -> Vec<LinkId> {
    let link = |rng: &mut Rng| {
        let s = ServerId(rng.gen_range(0..n_servers));
        if rng.gen::<bool>() {
            LinkId::Up(s)
        } else {
            LinkId::Down(s)
        }
    };
    match rng.gen_range(0..4u32) {
        0 => Vec::new(),
        1 | 2 => {
            let s = rng.gen_range(0..n_servers);
            let d = (s + rng.gen_range(1..n_servers)) % n_servers;
            vec![LinkId::Up(ServerId(s)), LinkId::Down(ServerId(d))]
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
                let links = random_path(&mut rng, n_servers);
                let demand = if rng.gen::<bool>() {
                    gbps(rng.gen_range(0.5..40.0))
                } else {
                    f64::INFINITY
                };
                Flow { links, demand }
            })
            .collect();
        let caps: Vec<f64> = (0..2 * n_servers)
            .map(|_| match rng.gen_range(0..10u32) {
                0 => 0.0,
                1 => f64::INFINITY,
                _ => gbps(rng.gen_range(1.0..100.0)),
            })
            .collect();
        let capacity = |l: LinkId| match l {
            LinkId::Up(s) => caps[2 * s.0],
            LinkId::Down(s) => caps[2 * s.0 + 1],
        };
        let local_rate = gbps(rng.gen_range(50.0..200.0));
        let want = reference_fill(&flows, capacity, local_rate);
        let got = max_min_fair_rates(&flows, capacity, local_rate, &mut fs);
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
            assert!(st.background.values().all(|&b| b >= 0.0));
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
