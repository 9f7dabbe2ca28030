//! Property tests for routing: Gao–Rexford invariants and catchment
//! geometry over randomly generated Internets.

use anycast_topology::bgp::{ExportScope, FirstHop, RouteComputer};
use anycast_topology::gen::{InternetGenerator, TopologyConfig};
use anycast_topology::{
    waypoints, AnycastDeployment, AnycastSite, AsGraph, Asn, CandidateKey, Catchment, RouteCache,
    RouteClass, SiteAssignment, SiteDrain, SiteId, SiteScope,
};
use geo::GeoPoint;
use proptest::prelude::*;
use std::cmp::Ordering;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Routes selected under the three-phase model are valley-free:
    /// reconstructing any source's path and re-deriving the per-hop
    /// relationships never shows a provider/peer edge followed by
    /// another non-customer edge (when read in export direction).
    #[test]
    fn selected_paths_are_valley_free(seed in 0u64..500) {
        let net = InternetGenerator::generate(&TopologyConfig::small(seed));
        let g = &net.graph;
        let origin = net.hosters[seed as usize % net.hosters.len()];
        let routes = RouteComputer::new(g).routes_from_origin(origin, ExportScope::Global, &[]);
        for idx in 0..g.len() {
            let Some(route) = routes.route_at(idx) else { continue };
            if route.class == RouteClass::Origin {
                continue;
            }
            let (nodes, _links) = routes
                .path_via(idx, route.first_hops[0])
                .expect("routable nodes have paths");
            // Walk from the source toward the origin. In a valley-free
            // path, once the walk takes a step that is not "toward a
            // customer" (i.e. not downhill), every earlier step must have
            // been downhill. Equivalently, read from origin outward:
            // uphill (customer→provider) steps, at most one peer step,
            // then downhill steps. Verify by scanning from the origin.
            let mut phase = 0; // 0 = uphill, 1 = peered, 2 = downhill
            for pair in nodes.windows(2).rev() {
                // pair[1] is closer to the origin; the announcement went
                // pair[1] → pair[0].
                let receiver = g.node_at(pair[0]).asn;
                let sender = g.node_at(pair[1]).asn;
                let rel = g
                    .adjacency(g.idx(sender))
                    .iter()
                    .find(|a| g.node_at(a.neighbor).asn == receiver)
                    .map(|a| a.rel)
                    .expect("consecutive path nodes are adjacent");
                use anycast_topology::Relationship;
                match rel {
                    // Sender exported to its provider: only legal while
                    // still in the uphill phase.
                    Relationship::Provider => prop_assert_eq!(phase, 0, "uphill after turn"),
                    Relationship::Peer => {
                        prop_assert!(phase <= 1, "peer step after downhill");
                        phase = 2; // at most one peer crossing
                    }
                    Relationship::Customer => phase = 2,
                }
            }
        }
    }

    /// Path length bookkeeping: the reconstructed AS path has exactly
    /// `path_len` nodes and starts/ends correctly.
    #[test]
    fn path_len_matches_reconstruction(seed in 0u64..500) {
        let net = InternetGenerator::generate(&TopologyConfig::small(seed));
        let g = &net.graph;
        let origin = net.transits[seed as usize % net.transits.len()];
        let routes = RouteComputer::new(g).routes_from_origin(origin, ExportScope::Global, &[]);
        for idx in 0..g.len() {
            let Some(route) = routes.route_at(idx) else { continue };
            if route.class == RouteClass::Origin {
                continue;
            }
            let (nodes, links) = routes
                .path_via(idx, route.first_hops[0])
                .expect("routable");
            prop_assert_eq!(nodes.len() as u32, route.path_len);
            prop_assert_eq!(links.len() + 1, nodes.len());
            prop_assert_eq!(nodes[0], idx);
            prop_assert_eq!(g.node_at(*nodes.last().expect("non-empty")).asn, origin);
        }
    }

    /// Catchment geometry: the routed path is never shorter than the
    /// great-circle to the chosen site, and inflation relative to the
    /// nearest site is non-negative by construction.
    #[test]
    fn routed_paths_respect_geometry(seed in 0u64..500) {
        let mut net = InternetGenerator::generate(&TopologyConfig::small(seed));
        let hosts = net.sample_hosters(4);
        let sites: Vec<AnycastSite> = hosts
            .iter()
            .enumerate()
            .map(|(i, h)| AnycastSite {
                id: SiteId(i as u32),
                name: format!("s{i}"),
                host: *h,
                location: net.graph.node(*h).pops[0],
                scope: SiteScope::Global,
            })
            .collect();
        let dep = AnycastDeployment::new("prop", sites, vec![]);
        let mut cache = RouteCache::new();
        let catchment = Catchment::compute(&net.graph, &dep, &mut cache);
        for loc in net.user_locations().iter().take(30) {
            let point = net.world.region(loc.region).center;
            let Some(a) = catchment.assign(loc.asn, &point) else { continue };
            let direct = point.distance_km(&dep.site(a.site).location);
            prop_assert!(a.path_km + 1e-6 >= direct, "path {} < direct {}", a.path_km, direct);
            prop_assert!(!a.as_path.is_empty());
            prop_assert_eq!(a.as_path[0], loc.asn);
        }
    }

    /// The tiered decision walk ranks exactly like the eager reference
    /// below (score every group, then stable-sort by the full
    /// comparator) on random worlds with shared hosts, same-host
    /// Global/Local pairs, an origin-AS group and random staged drains.
    #[test]
    fn tiered_walk_matches_eager_reference(seed in 0u64..500, shape in 0u64..u64::MAX) {
        let mut net = InternetGenerator::generate(&TopologyConfig::small(seed));
        let dep = random_deployment(&mut net, shape);
        let g = &net.graph;
        let mut cache = RouteCache::new();
        let c = Catchment::compute(g, &dep, &mut cache);
        let mut sources: Vec<(Asn, GeoPoint)> = net
            .user_locations()
            .iter()
            .take(40)
            .map(|l| (l.asn, net.world.region(l.region).center))
            .collect();
        sources.extend(dep.sites.iter().map(|s| (s.host, s.location)));
        for (src, loc) in sources {
            let eager = eager_rank(&c, g, src, &loc);
            let want_keys: Vec<CandidateKey> = eager.iter().map(|(k, _)| *k).collect();
            prop_assert_eq!(c.candidate_keys(src, &loc), want_keys);
            let want: Vec<(SiteAssignment, CandidateKey)> = eager
                .iter()
                .filter_map(|(k, first)| {
                    materialize_ref(&c, g, src, &loc, k, *first).map(|a| (a, *k))
                })
                .collect();
            let dbg = |v: &[SiteAssignment]| format!("{v:?}");
            let want_ranked: Vec<SiteAssignment> = want.iter().map(|(a, _)| a.clone()).collect();
            prop_assert_eq!(dbg(&c.ranked(src, &loc)), dbg(&want_ranked));
            for k in [1, 2] {
                let n = k.min(want_ranked.len());
                prop_assert_eq!(dbg(&c.ranked_top(src, &loc, k)), dbg(&want_ranked[..n]));
            }
            prop_assert_eq!(
                format!("{:?}", c.assign(src, &loc)),
                format!("{:?}", want_ranked.first())
            );
            prop_assert_eq!(
                format!("{:?}", c.assign_with_key(src, &loc)),
                format!("{:?}", want.first())
            );
        }
    }
}

/// SplitMix64 step: a tiny deterministic stream for shaping random
/// deployments from one proptest draw.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deployment over 2–7 hosters: each hosts one to three global sites
/// at its PoPs, some also a local site (a same-host Global/Local pair),
/// half the time behind a transit origin AS (its group sorts last), and
/// about a third of the sites mid-drain with a random subset of their
/// host's neighbor sessions withheld.
fn random_deployment(net: &mut anycast_topology::gen::Internet, shape: u64) -> AnycastDeployment {
    let mut st = shape;
    let hosts = net.sample_hosters(2 + (next(&mut st) % 6) as usize);
    let g = &net.graph;
    let mut sites = Vec::new();
    for h in &hosts {
        let pops = &g.node(*h).pops;
        let globals = 1 + next(&mut st) % 3;
        let local = next(&mut st).is_multiple_of(3);
        for j in 0..globals + u64::from(local) {
            sites.push(AnycastSite {
                id: SiteId(sites.len() as u32),
                name: format!("s{}", sites.len()),
                host: *h,
                location: pops[j as usize % pops.len()],
                scope: if j < globals { SiteScope::Global } else { SiteScope::Local },
            });
        }
    }
    let mut site_drains = Vec::new();
    for s in &sites {
        if !next(&mut st).is_multiple_of(3) {
            continue;
        }
        let mut withheld: Vec<Asn> = g
            .adjacency(g.idx(s.host))
            .iter()
            .map(|a| g.node_at(a.neighbor).asn)
            .filter(|_| next(&mut st).is_multiple_of(2))
            .collect();
        withheld.sort_unstable();
        withheld.dedup();
        site_drains.push(SiteDrain { site: s.id, withheld });
    }
    let mut dep = AnycastDeployment::new("prop", sites, vec![]);
    dep.site_drains = site_drains;
    if next(&mut st).is_multiple_of(2) {
        let origin = net.transits[(next(&mut st) % net.transits.len() as u64) as usize];
        dep = dep.with_origin(origin, vec![]);
    }
    dep
}

/// The eager reference ranking: score every reachable group's early
/// exit, then stable-sort by (class desc, len asc, exit_km asc, host).
fn eager_rank(
    c: &Catchment<'_>,
    g: &AsGraph,
    src: Asn,
    loc: &GeoPoint,
) -> Vec<(CandidateKey, Option<FirstHop>)> {
    let src_idx = g.idx(src);
    let serving = g.serving_pop(src, loc);
    let mut cands = Vec::new();
    for (host, scope) in c.group_keys() {
        let routes = c.group_routes(host, scope).expect("listed group");
        let Some(route) = routes.route_at(src_idx) else { continue };
        let (exit_km, first) = if route.class == RouteClass::Origin {
            (0.0, None)
        } else {
            let best = route
                .first_hops
                .iter()
                .map(|fh| {
                    let x = g.nearest_interconnect(fh.link, &serving);
                    (serving.distance_km(&x), *fh)
                })
                .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
            let Some((d, fh)) = best else { continue };
            (d, Some(fh))
        };
        let key =
            CandidateKey { class: route.class, path_len: route.path_len, exit_km, host, scope };
        cands.push((key, first));
    }
    cands.sort_by(|(a, _), (b, _)| {
        b.class
            .cmp(&a.class)
            .then(a.path_len.cmp(&b.path_len))
            .then(a.exit_km.partial_cmp(&b.exit_km).unwrap_or(Ordering::Equal))
            .then(a.host.cmp(&b.host))
    });
    cands
}

/// Reference materialization of one ranked candidate: the path, the
/// nearest eligible hosted site to the origin entry (skipping sites
/// whose staged drain withholds the entry session), and its waypoints.
fn materialize_ref(
    c: &Catchment<'_>,
    g: &AsGraph,
    src: Asn,
    loc: &GeoPoint,
    key: &CandidateKey,
    first: Option<FirstHop>,
) -> Option<SiteAssignment> {
    let dep = c.deployment();
    let src_idx = g.idx(src);
    let serving = g.serving_pop(src, loc);
    let routes = c.group_routes(key.host, key.scope).expect("listed group");
    let (nodes, links) = match first {
        Some(fh) => routes.path_via(src_idx, fh)?,
        None => (vec![src_idx], vec![]),
    };
    let via = nodes.len().checked_sub(2).map(|i| g.node_at(nodes[i]).asn);
    let entry = links.iter().fold(serving, |cur, &l| g.nearest_interconnect(l, &cur));
    let site = c
        .group_sites(key.host, key.scope)
        .expect("listed group")
        .iter()
        .copied()
        .filter(|&s| match (via, dep.drain_of(s)) {
            (Some(v), Some(d)) => !d.withheld.contains(&v),
            _ => true,
        })
        .min_by(|a, b| {
            let da = dep.site(*a).location.distance_km(&entry);
            let db = dep.site(*b).location.distance_km(&entry);
            da.partial_cmp(&db).unwrap_or(Ordering::Equal).then(a.cmp(b))
        })?;
    let site_loc = dep.site(site).location;
    let wp = waypoints::resolve(g, &nodes, &links, loc, &site_loc);
    let path_km = waypoints::length_km(&wp);
    let mut as_path: Vec<Asn> = nodes.iter().map(|&i| g.node_at(i).asn).collect();
    if let Some(origin) = dep.origin_as {
        let last = *as_path.last().expect("non-empty");
        if last != origin && !dep.direct_hosts.contains(&last) {
            as_path.push(origin);
        }
    }
    Some(SiteAssignment { site, class: key.class, as_path, waypoints: wp, path_km, entry })
}
