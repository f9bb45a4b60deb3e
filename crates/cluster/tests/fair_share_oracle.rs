//! The slotted max-min solver against the progressive fill it replaced.
//!
//! [`oracle_fill`] is the previous `max_min_fair_rates`: it deduplicates
//! each solve's links into a first-seen table by linear search and fills
//! every flow set round by round, one flow included. It is kept here only
//! as the oracle the production solver (dense per-slot tables, an empty
//! flow set returned at once, one flow in closed form) must match bit for
//! bit, the way `pipedream_oracle.rs` keeps the PipeDream DP's full scan.

use ap_cluster::gpu::GpuKind;
use ap_cluster::{
    gbps, max_min_fair_rates, ClusterState, ClusterTopology, EventKind, FairShare, Flow, LinkId,
    ServerId,
};
use ap_rng::Rng;

/// The previous solver's scratch tables, reused across solves as the
/// engine reused them.
#[derive(Default)]
struct OracleTables {
    rates: Vec<f64>,
    demand: Vec<f64>,
    path: Vec<usize>,
    bounds: Vec<usize>,
    links: Vec<usize>,
    residual: Vec<f64>,
    crossers: Vec<usize>,
    last_crosser: Vec<usize>,
    frozen: Vec<bool>,
    active: Vec<usize>,
}

/// The previous progressive fill, unchanged but for links named by slot
/// and the count of fill rounds it returns beside the rates.
fn oracle_fill<'a, I, F>(
    flows: I,
    capacity: F,
    local_rate: f64,
    out: &mut OracleTables,
) -> (Vec<f64>, u64)
where
    I: IntoIterator<Item = &'a Flow>,
    F: Fn(usize) -> f64,
{
    let OracleTables {
        rates,
        demand,
        path,
        bounds,
        links,
        residual,
        crossers,
        last_crosser,
        frozen,
        active,
    } = out;
    demand.clear();
    path.clear();
    bounds.clear();
    links.clear();
    residual.clear();
    bounds.push(0);
    for f in flows {
        for &l in &f.path {
            let slot = match links.iter().position(|&x| x == l) {
                Some(slot) => slot,
                None => {
                    links.push(l);
                    residual.push(capacity(l));
                    links.len() - 1
                }
            };
            path.push(slot);
        }
        bounds.push(path.len());
        demand.push(f.demand);
    }
    let n = demand.len();
    rates.clear();
    rates.resize(n, 0.0);
    frozen.clear();
    frozen.resize(n, false);
    crossers.resize(links.len(), 0);
    last_crosser.resize(links.len(), 0);
    let mut rounds = 0;

    for i in 0..n {
        if bounds[i] == bounds[i + 1] {
            rates[i] = demand[i].min(local_rate);
            frozen[i] = true;
        }
    }

    loop {
        active.clear();
        active.extend((0..n).filter(|&i| !frozen[i]));
        if active.is_empty() {
            break;
        }
        rounds += 1;

        crossers.fill(0);
        last_crosser.fill(usize::MAX);
        for &i in active.iter() {
            for &l in &path[bounds[i]..bounds[i + 1]] {
                if last_crosser[l] != i {
                    last_crosser[l] = i;
                    crossers[l] += 1;
                }
            }
        }

        let mut min_incr = f64::INFINITY;
        for (&cap, &c) in residual.iter().zip(crossers.iter()) {
            if c > 0 && cap.is_finite() {
                min_incr = min_incr.min(cap / c as f64);
            }
        }
        for &i in active.iter() {
            let remaining = demand[i] - rates[i];
            min_incr = min_incr.min(remaining);
        }
        if !min_incr.is_finite() {
            for &i in active.iter() {
                rates[i] = f64::INFINITY;
            }
            break;
        }
        debug_assert!(min_incr >= -1e-9, "negative fill increment");
        let incr = min_incr.max(0.0);

        for &i in active.iter() {
            rates[i] += incr;
            for &l in &path[bounds[i]..bounds[i + 1]] {
                residual[l] -= incr;
            }
        }

        for &i in active.iter() {
            let at_demand = rates[i] >= demand[i] - 1e-9;
            let on_saturated = path[bounds[i]..bounds[i + 1]]
                .iter()
                .any(|&l| residual[l] <= 1e-6);
            if at_demand || on_saturated {
                frozen[i] = true;
            }
        }
    }

    (rates.clone(), rounds)
}

/// Per-slot capacities as the engine builds them: each NIC's line rate
/// less random background traffic, floored at 1% of the line rate
/// ([`ClusterState::available_capacity`]), times a framework efficiency.
/// Some slots are then forced to zero or infinity, the extremes the
/// solver must still handle.
fn capacities(rng: &mut Rng, n_servers: usize) -> Vec<f64> {
    let mut state = ClusterState::new(ClusterTopology::single_switch(
        n_servers,
        1,
        GpuKind::V100,
        25.0,
    ));
    for s in 0..n_servers {
        state.apply(&EventKind::SetServerLinkGbps(
            ServerId(s),
            rng.gen_range(1.0..100.0),
        ));
        // Past the line rate about a third of the time: that link sits at
        // the 1% floor.
        if rng.gen::<bool>() {
            state.apply(&EventKind::SetBackgroundTraffic(
                ServerId(s),
                gbps(rng.gen_range(0.0..150.0)),
            ));
        }
    }
    let efficiency = rng.gen_range(0.5..1.0);
    (0..n_servers)
        .flat_map(|s| [LinkId::Up(ServerId(s)), LinkId::Down(ServerId(s))])
        .map(|l| match rng.gen_range(0..12u32) {
            0 => 0.0,
            1 => f64::INFINITY,
            _ => state.available_capacity(l) * efficiency,
        })
        .collect()
}

/// A random path: node-local, an uplink–downlink hop, or a ring-style
/// list of up to six slots that may repeat one.
fn random_path(rng: &mut Rng, n_slots: usize) -> Vec<usize> {
    match rng.gen_range(0..5u32) {
        0 => Vec::new(),
        1 | 2 if n_slots >= 4 => {
            let s = rng.gen_range(0..n_slots / 2);
            let d = (s + rng.gen_range(1..n_slots / 2)) % (n_slots / 2);
            vec![2 * s, 2 * d + 1]
        }
        _ => (0..rng.gen_range(1..=6usize))
            .map(|_| rng.gen_range(0..n_slots))
            .collect(),
    }
}

/// 0–12 flows over one to five servers, with shared and repeated links,
/// node-local flows, finite and infinite demands, and capacities at the
/// 1% floor, at zero and infinite: rates and fill rounds agree with the
/// oracle bit for bit. One buffer serves every case, so stale state from
/// a larger solve would show.
#[test]
fn slotted_solver_matches_the_progressive_fill_oracle() {
    let mut fs = FairShare::default();
    let mut tables = OracleTables::default();
    let mut lone = 0;
    for case in 0..4000u64 {
        let mut rng = Rng::seed_from_u64(0x0AC1E + case);
        let n_servers = rng.gen_range(1..=5usize);
        let caps = capacities(&mut rng, n_servers);
        let n_flows = match case % 5 {
            0 => rng.gen_range(0..=1usize),
            _ => rng.gen_range(0..=12usize),
        };
        let flows: Vec<Flow> = (0..n_flows)
            .map(|_| {
                let path = random_path(&mut rng, caps.len());
                let demand = match rng.gen_range(0..3u32) {
                    0 => gbps(rng.gen_range(0.5..40.0)),
                    _ => f64::INFINITY,
                };
                Flow { path, demand }
            })
            .collect();
        let local_rate = gbps(rng.gen_range(50.0..200.0));
        let (want, want_rounds) = oracle_fill(&flows, |l| caps[l], local_rate, &mut tables);
        let got = max_min_fair_rates(&flows, &caps, local_rate, &mut fs);
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(got),
            bits(&want),
            "case {case}: {flows:?} over {caps:?}"
        );
        if n_flows >= 2 {
            assert_eq!(fs.rounds(), want_rounds, "case {case}: fill rounds");
        } else {
            assert_eq!(fs.rounds(), 0, "case {case}: a lone flow needs no round");
            lone += n_flows;
        }
    }
    assert!(lone > 300, "too few lone flows drawn: {lone}");
}
