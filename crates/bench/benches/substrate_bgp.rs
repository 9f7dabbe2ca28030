//! Substrate bench: raw BGP route computation and anycast catchment
//! assignment over the synthetic Internet — the hot loops everything
//! else stands on.

use anycast_bench::{bench_world, min_secs};
use anycast_context::topology::bgp::ExportScope;
use anycast_context::topology::{Catchment, RouteCache, RouteComputer};
use std::hint::black_box;

fn main() {
    let world = bench_world();
    let graph = &world.internet.graph;
    let origin = world.cdn.asn;

    let (secs, _) = min_secs(10, || {
        RouteComputer::new(graph).routes_from_origin(origin, ExportScope::Global, &[])
    });
    println!("bgp_routes_from_origin: min {:.3} ms", secs * 1e3);

    let ring = world.cdn.largest_ring();
    let (secs, _) = min_secs(10, || {
        let mut cache = RouteCache::new();
        Catchment::compute(graph, &ring.deployment, &mut cache)
    });
    println!("catchment_compute: min {:.3} ms", secs * 1e3);

    let mut cache = RouteCache::new();
    let catchment = Catchment::compute(graph, &ring.deployment, &mut cache);
    let locations = world.internet.user_locations();
    let (secs, ()) = min_secs(10, || {
        for loc in &locations {
            let p = world.internet.world.region(loc.region).center;
            black_box(catchment.assign(loc.asn, &p));
        }
    });
    println!("catchment_assign_all_locations: min {:.3} ms", secs * 1e3);
}
