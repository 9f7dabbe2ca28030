//! Scaling of the deterministic parallel layer: catchment prefill and
//! the fig12 resolver-campaign shards at 1/2/4/8 worker threads, fixed
//! seed. The point is twofold — wall-clock should fall as threads rise
//! (on a multi-core host), and the printed digests must not move at
//! all, since thread count is forbidden from changing any result.

use anycast_bench::min_secs;
use anycast_context::topology::{Catchment, RouteCache};
use anycast_context::{experiments, par, World, WorldConfig};

fn main() {
    let world = World::build(&WorldConfig {
        scale: 0.2,
        atlas_probes: 100,
        log_samples: 5,
        client_samples: 5,
        ..WorldConfig::paper(2021)
    });

    for threads in [1usize, 2, 4, 8] {
        par::set_threads(threads);
        let (secs, _) = min_secs(10, || {
            // Fresh cache each run: measure the prefill fan-out, not
            // the cache hit path.
            let mut cache = RouteCache::new();
            let mut sites = 0usize;
            for letter in &world.letters.letters {
                let catchment = Catchment::compute_shared(
                    &world.internet.graph,
                    std::sync::Arc::clone(&letter.deployment),
                    &mut cache,
                );
                sites += catchment.deployment().total_site_count();
            }
            sites
        });
        println!("catchment_prefill/{threads}: min {:.3} ms", secs * 1e3);
    }

    for threads in [1usize, 2, 4, 8] {
        par::set_threads(threads);
        let (secs, _) = min_secs(10, || experiments::run("fig12", &world));
        println!("fig12_shards/{threads}: min {:.3} ms", secs * 1e3);
    }

    // Determinism spot check under the bench world: the miss-rate table
    // text must match between a single- and multi-threaded run.
    par::set_threads(1);
    let single: Vec<String> =
        experiments::run("fig12", &world).iter().map(|a| a.render_text()).collect();
    par::set_threads(8);
    let eight: Vec<String> =
        experiments::run("fig12", &world).iter().map(|a| a.render_text()).collect();
    par::set_threads(0);
    assert_eq!(single, eight, "fig12 must not depend on thread count");
    println!("fig12 thread-count invariance: OK ({} artifacts)", single.len());
}
