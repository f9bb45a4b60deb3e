//! Max-min fair bandwidth allocation.
//!
//! PipeDream's planner assumes a hierarchical topology with identical
//! bandwidth per level (§3.1 Obs. 2 calls this out as an oversimplification).
//! The simulator instead computes the rate every concurrent flow actually
//! gets with progressive filling (water-filling) over the real link
//! capacities, which is the standard fluid approximation of per-flow fair
//! queueing on a single-switch fabric.

/// A flow competing for bandwidth: the links it traverses, as slots into
/// the caller's dense capacity table (see [`crate::LinkId::slot`]), plus
/// an optional demand cap (bytes/s). `demand = f64::INFINITY` means
/// elastic.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Link slots traversed (empty = node-local, gets `local_rate`). A
    /// slot listed twice is crossed once but drained twice per round.
    pub path: Vec<usize>,
    /// Application-level rate cap in bytes/s.
    pub demand: f64,
}

impl Flow {
    /// An elastic flow over the given path.
    pub fn elastic(path: Vec<usize>) -> Self {
        Flow {
            path,
            demand: f64::INFINITY,
        }
    }
}

/// Caller-owned buffers for [`max_min_fair_rates`]: the solved rates
/// plus the fill's scratch tables. Reusing one value across solves makes
/// every solve after the first allocation-free.
#[derive(Debug, Default)]
pub struct FairShare {
    rates: Vec<f64>,
    demand: Vec<f64>,
    /// Every flow's path, concatenated; flow `i` owns
    /// `path[bounds[i]..bounds[i + 1]]`.
    path: Vec<usize>,
    bounds: Vec<usize>,
    /// Per link slot: residual capacity, unfrozen flows crossing it this
    /// round, and the last flow counted (a flow listing a link twice
    /// crosses it once). Only the slots some path names are meaningful.
    residual: Vec<f64>,
    crossers: Vec<usize>,
    last_crosser: Vec<usize>,
    frozen: Vec<bool>,
    active: Vec<usize>,
    /// Fill rounds the last solve ran.
    rounds: u64,
}

impl FairShare {
    /// The rates of the last solve, one per flow in input order.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Progressive-filling rounds the last solve ran: zero when it had no
    /// flow or one flow (solved in closed form).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}

/// Compute max-min fair rates (bytes/s) for `flows` into `out`, and
/// return them (one per flow, in input order). `caps[slot]` is the free
/// capacity of the link at `slot`; every slot a path names must be in
/// range. `local_rate` is assigned to flows with an empty path.
///
/// Progressive filling: raise all unfrozen flows' rates equally until a
/// link saturates or a flow hits its demand; freeze those and repeat.
/// An empty flow set returns at once, and one flow is solved in closed
/// form with the same float operations the fill would run on it.
pub fn max_min_fair_rates<'a, 'o, I>(
    flows: I,
    caps: &[f64],
    local_rate: f64,
    out: &'o mut FairShare,
) -> &'o [f64]
where
    I: IntoIterator<Item = &'a Flow>,
{
    out.rounds = 0;
    out.rates.clear();
    let mut flows = flows.into_iter();
    let Some(first) = flows.next() else {
        return &out.rates;
    };
    let Some(second) = flows.next() else {
        out.rates.push(lone_rate(first, caps, local_rate));
        return &out.rates;
    };
    fill(
        [first, second].into_iter().chain(flows),
        caps,
        local_rate,
        out,
    );
    &out.rates
}

/// The rate of a flow alone on the fabric, bit for bit what the fill
/// gives it. A node-local flow gets its demand capped at `local_rate`.
/// Otherwise one round runs: the increment is the smaller of the path's
/// smallest finite capacity and the demand, clamped at zero and added to
/// a zero rate (infinite when both are), and the round freezes the flow,
/// at its demand or on the link that set the increment.
fn lone_rate(flow: &Flow, caps: &[f64], local_rate: f64) -> f64 {
    if flow.path.is_empty() {
        return flow.demand.min(local_rate);
    }
    let mut m = f64::INFINITY;
    for &l in &flow.path {
        let cap = caps[l];
        if cap.is_finite() {
            m = m.min(cap);
        }
    }
    m = m.min(flow.demand);
    0.0 + m.max(0.0)
}

/// Progressive filling over two or more flows.
fn fill<'a>(
    flows: impl Iterator<Item = &'a Flow>,
    caps: &[f64],
    local_rate: f64,
    out: &mut FairShare,
) {
    let FairShare {
        rates,
        demand,
        path,
        bounds,
        residual,
        crossers,
        last_crosser,
        frozen,
        active,
        rounds,
    } = out;
    demand.clear();
    path.clear();
    bounds.clear();
    bounds.push(0);
    for f in flows {
        path.extend_from_slice(&f.path);
        bounds.push(path.len());
        demand.push(f.demand);
    }
    if residual.len() < caps.len() {
        residual.resize(caps.len(), 0.0);
        crossers.resize(caps.len(), 0);
        last_crosser.resize(caps.len(), 0);
    }
    for &l in path.iter() {
        residual[l] = caps[l];
    }
    let n = demand.len();
    rates.resize(n, 0.0);
    frozen.clear();
    frozen.resize(n, false);

    // Local flows are only limited by their demand and the local fabric.
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
        *rounds += 1;

        for &i in active.iter() {
            for &l in &path[bounds[i]..bounds[i + 1]] {
                crossers[l] = 0;
                last_crosser[l] = usize::MAX;
            }
        }
        for &i in active.iter() {
            for &l in &path[bounds[i]..bounds[i + 1]] {
                if last_crosser[l] != i {
                    last_crosser[l] = i;
                    crossers[l] += 1;
                }
            }
        }

        // The smallest per-flow increment that saturates some link: every
        // link an active flow crosses, each seen once or more (the
        // minimum does not depend on the order or the repeats).
        let mut min_incr = f64::INFINITY;
        for &i in active.iter() {
            for &l in &path[bounds[i]..bounds[i + 1]] {
                let cap = residual[l];
                if cap.is_finite() {
                    min_incr = min_incr.min(cap / crossers[l] as f64);
                }
            }
        }
        // Or the smallest remaining demand.
        for &i in active.iter() {
            let remaining = demand[i] - rates[i];
            min_incr = min_incr.min(remaining);
        }
        if !min_incr.is_finite() {
            // All active flows are elastic and cross no finite link.
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

        // Freeze flows at demand or on saturated links.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{LinkId, ServerId};
    use crate::units::gbps;

    fn up(s: usize) -> usize {
        LinkId::Up(ServerId(s)).slot()
    }
    fn down(s: usize) -> usize {
        LinkId::Down(ServerId(s)).slot()
    }
    /// Every link of a four-server fabric at `cap`.
    fn uniform(cap: f64) -> Vec<f64> {
        vec![cap; 8]
    }

    #[test]
    fn single_flow_gets_line_rate() {
        let flows = vec![Flow::elastic(vec![up(0), down(1)])];
        let mut fs = FairShare::default();
        let r = max_min_fair_rates(&flows, &uniform(gbps(10.0)), gbps(96.0), &mut fs);
        assert!((r[0] - gbps(10.0)).abs() < 1.0);
        assert_eq!(fs.rounds(), 0, "one flow is solved in closed form");
    }

    #[test]
    fn two_flows_share_common_uplink_evenly() {
        let flows = vec![
            Flow::elastic(vec![up(0), down(1)]),
            Flow::elastic(vec![up(0), down(2)]),
        ];
        let mut fs = FairShare::default();
        let r = max_min_fair_rates(&flows, &uniform(gbps(10.0)), gbps(96.0), &mut fs);
        assert!((r[0] - gbps(5.0)).abs() < 1.0);
        assert!((r[1] - gbps(5.0)).abs() < 1.0);
        assert_eq!(fs.rounds(), 1);
    }

    #[test]
    fn demand_capped_flow_releases_bandwidth() {
        let flows = vec![
            Flow {
                path: vec![up(0), down(1)],
                demand: gbps(2.0),
            },
            Flow::elastic(vec![up(0), down(2)]),
        ];
        let mut fs = FairShare::default();
        let r = max_min_fair_rates(&flows, &uniform(gbps(10.0)), gbps(96.0), &mut fs);
        assert!((r[0] - gbps(2.0)).abs() < 1.0);
        assert!((r[1] - gbps(8.0)).abs() < 1.0);
    }

    #[test]
    fn local_flow_uses_local_fabric() {
        let flows = vec![Flow::elastic(vec![])];
        let mut fs = FairShare::default();
        let r = max_min_fair_rates(&flows, &uniform(gbps(10.0)), 12.0e9, &mut fs);
        assert!((r[0] - 12.0e9).abs() < 1.0);
    }

    #[test]
    fn heterogeneous_capacities_respected() {
        // Flow A crosses a 10G uplink; flow B crosses a 100G uplink but
        // shares flow A's 25G downlink.
        let mut caps = uniform(gbps(100.0));
        caps[up(0)] = gbps(10.0);
        caps[down(2)] = gbps(25.0);
        let flows = vec![
            Flow::elastic(vec![up(0), down(2)]),
            Flow::elastic(vec![up(1), down(2)]),
        ];
        let mut fs = FairShare::default();
        let r = max_min_fair_rates(&flows, &caps, gbps(96.0), &mut fs);
        // A is limited by its 10G uplink; B picks up the rest of the 25G
        // downlink.
        assert!((r[0] - gbps(10.0)).abs() < gbps(0.01));
        assert!((r[1] - gbps(15.0)).abs() < gbps(0.01));
    }

    #[test]
    fn empty_flow_set_is_fine() {
        let mut fs = FairShare::default();
        let r = max_min_fair_rates(&[] as &[Flow], &uniform(gbps(10.0)), gbps(96.0), &mut fs);
        assert!(r.is_empty());
        assert_eq!(fs.rounds(), 0);
    }

    #[test]
    fn total_on_link_never_exceeds_capacity() {
        let flows: Vec<Flow> = (0..7)
            .map(|i| Flow::elastic(vec![up(0), down(1 + i % 3)]))
            .collect();
        let mut fs = FairShare::default();
        let r = max_min_fair_rates(&flows, &uniform(gbps(40.0)), gbps(96.0), &mut fs);
        let total: f64 = r.iter().sum();
        assert!(total <= gbps(40.0) + 1.0, "uplink oversubscribed: {total}");
    }
}
