//! Ablation: sweep the CDN's eyeball-peering probability and measure the
//! resulting inflation — the quantitative form of §7.1's claim that
//! "strategic business investments … toward peering" are what keep CDN
//! inflation low.

use anycast_bench::{bench_world_with_peering, min_secs};
use anycast_context::analysis::cdn_inflation;

fn main() {
    println!("peering  zero-geo-users  geo-p90-ms  lat-median-ms  min-ms");
    for peering in [0.05, 0.2, 0.4, 0.62, 0.8] {
        let world = bench_world_with_peering(peering);
        let users = world.users_by_location();
        let ring = world.cdn.largest_ring();
        let (secs, result) =
            min_secs(10, || cdn_inflation(&world.server_logs, ring, &world.internet, &users));
        println!(
            "{peering:<9.2}{:>14.1}%{:>11.1}{:>14.1}{:>8.2}",
            result.geo.intercept(1.0) * 100.0,
            result.geo.quantile(0.9),
            result.latency.median(),
            secs * 1e3,
        );
    }
}
