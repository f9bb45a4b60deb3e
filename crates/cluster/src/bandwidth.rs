//! Max-min fair bandwidth allocation.
//!
//! PipeDream's planner assumes a hierarchical topology with identical
//! bandwidth per level (§3.1 Obs. 2 calls this out as an oversimplification).
//! The simulator instead computes the rate every concurrent flow actually
//! gets with progressive filling (water-filling) over the real link
//! capacities, which is the standard fluid approximation of per-flow fair
//! queueing on a single-switch fabric.

use crate::topology::LinkId;

/// A flow competing for bandwidth: a set of links it traverses plus an
/// optional demand cap (bytes/s). `demand = f64::INFINITY` means elastic.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Links traversed (empty = node-local, gets `local_rate`).
    pub links: Vec<LinkId>,
    /// Application-level rate cap in bytes/s.
    pub demand: f64,
}

impl Flow {
    /// An elastic flow over the given path.
    pub fn elastic(links: Vec<LinkId>) -> Self {
        Flow {
            links,
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
    /// Every flow's path as indices into `links`, concatenated; flow `i`
    /// owns `path[bounds[i]..bounds[i + 1]]`.
    path: Vec<usize>,
    bounds: Vec<usize>,
    /// The distinct links the flows cross, in first-seen order, with
    /// their residual capacity.
    links: Vec<LinkId>,
    residual: Vec<f64>,
    /// Per link: unfrozen flows crossing it this round, and the last
    /// flow counted (a flow listing a link twice crosses it once).
    crossers: Vec<usize>,
    last_crosser: Vec<usize>,
    frozen: Vec<bool>,
    active: Vec<usize>,
}

impl FairShare {
    /// The rates of the last solve, one per flow in input order.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }
}

/// Compute max-min fair rates (bytes/s) for `flows` over links with the
/// given capacities into `out`, and return them (one per flow, in input
/// order). `capacity(link)` must return the free capacity of the link;
/// `local_rate` is assigned to flows with an empty path.
///
/// Progressive filling: raise all unfrozen flows' rates equally until a
/// link saturates or a flow hits its demand; freeze those and repeat.
/// The links are a small dense table (a solve sees a handful), looked up
/// by linear scan.
pub fn max_min_fair_rates<'a, I, F>(
    flows: I,
    capacity: F,
    local_rate: f64,
    out: &mut FairShare,
) -> &[f64]
where
    I: IntoIterator<Item = &'a Flow>,
    F: Fn(LinkId) -> f64,
{
    let FairShare {
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
        for &l in &f.links {
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

        // The smallest per-flow increment that saturates some link.
        let mut min_incr = f64::INFINITY;
        for (&cap, &c) in residual.iter().zip(crossers.iter()) {
            if c > 0 && cap.is_finite() {
                min_incr = min_incr.min(cap / c as f64);
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

    rates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ServerId;
    use crate::units::gbps;

    fn up(s: usize) -> LinkId {
        LinkId::Up(ServerId(s))
    }
    fn down(s: usize) -> LinkId {
        LinkId::Down(ServerId(s))
    }

    #[test]
    fn single_flow_gets_line_rate() {
        let flows = vec![Flow::elastic(vec![up(0), down(1)])];
        let mut fs = FairShare::default();
        let r = max_min_fair_rates(&flows, |_| gbps(10.0), gbps(96.0), &mut fs);
        assert!((r[0] - gbps(10.0)).abs() < 1.0);
    }

    #[test]
    fn two_flows_share_common_uplink_evenly() {
        let flows = vec![
            Flow::elastic(vec![up(0), down(1)]),
            Flow::elastic(vec![up(0), down(2)]),
        ];
        let mut fs = FairShare::default();
        let r = max_min_fair_rates(&flows, |_| gbps(10.0), gbps(96.0), &mut fs);
        assert!((r[0] - gbps(5.0)).abs() < 1.0);
        assert!((r[1] - gbps(5.0)).abs() < 1.0);
    }

    #[test]
    fn demand_capped_flow_releases_bandwidth() {
        let flows = vec![
            Flow {
                links: vec![up(0), down(1)],
                demand: gbps(2.0),
            },
            Flow::elastic(vec![up(0), down(2)]),
        ];
        let mut fs = FairShare::default();
        let r = max_min_fair_rates(&flows, |_| gbps(10.0), gbps(96.0), &mut fs);
        assert!((r[0] - gbps(2.0)).abs() < 1.0);
        assert!((r[1] - gbps(8.0)).abs() < 1.0);
    }

    #[test]
    fn local_flow_uses_local_fabric() {
        let flows = vec![Flow::elastic(vec![])];
        let mut fs = FairShare::default();
        let r = max_min_fair_rates(&flows, |_| gbps(10.0), 12.0e9, &mut fs);
        assert!((r[0] - 12.0e9).abs() < 1.0);
    }

    #[test]
    fn heterogeneous_capacities_respected() {
        // Flow A crosses a 10G uplink; flow B crosses a 100G uplink but
        // shares flow A's 25G downlink.
        let caps = |l: LinkId| match l {
            LinkId::Up(ServerId(0)) => gbps(10.0),
            LinkId::Up(ServerId(1)) => gbps(100.0),
            LinkId::Down(ServerId(2)) => gbps(25.0),
            _ => gbps(100.0),
        };
        let flows = vec![
            Flow::elastic(vec![up(0), down(2)]),
            Flow::elastic(vec![up(1), down(2)]),
        ];
        let mut fs = FairShare::default();
        let r = max_min_fair_rates(&flows, caps, gbps(96.0), &mut fs);
        // A is limited by its 10G uplink; B picks up the rest of the 25G
        // downlink.
        assert!((r[0] - gbps(10.0)).abs() < gbps(0.01));
        assert!((r[1] - gbps(15.0)).abs() < gbps(0.01));
    }

    #[test]
    fn empty_flow_set_is_fine() {
        let mut fs = FairShare::default();
        let r = max_min_fair_rates(&[] as &[Flow], |_| gbps(10.0), gbps(96.0), &mut fs);
        assert!(r.is_empty());
    }

    #[test]
    fn total_on_link_never_exceeds_capacity() {
        let flows: Vec<Flow> = (0..7)
            .map(|i| Flow::elastic(vec![up(0), down(1 + i % 3)]))
            .collect();
        let mut fs = FairShare::default();
        let r = max_min_fair_rates(&flows, |_| gbps(40.0), gbps(96.0), &mut fs);
        let total: f64 = r.iter().sum();
        assert!(total <= gbps(40.0) + 1.0, "uplink oversubscribed: {total}");
    }
}
