//! Ablation: sweep the recursives' letter-preference exploration and
//! watch the All-Roots inflation line move — the mechanism behind §3's
//! "inflation for the root DNS as a whole is not as bad as individual
//! root letters".

use anycast_bench::min_secs;
use anycast_context::analysis::{preprocess, root_inflation, FilterOptions};
use anycast_context::workload::{DitlConfig, DitlDataset};
use anycast_context::{World, WorldConfig};

fn main() {
    let world = World::build(&WorldConfig {
        scale: 0.2,
        atlas_probes: 100,
        log_samples: 5,
        client_samples: 5,
        ..WorldConfig::paper(2021)
    });
    println!("exploration  all-roots-geo-median  all-roots-geo-p90  min-ms");
    for exploration in [0.0, 0.3, 0.6, 1.0] {
        let ditl = DitlDataset::generate(
            &world.internet,
            &world.letters,
            &world.population,
            &world.model,
            &DitlConfig { letter_exploration: exploration, ..DitlConfig::default() },
        );
        let clean = preprocess(&ditl, &FilterOptions::default());
        let users = world.users_by_prefix();
        let (secs, result) =
            min_secs(10, || root_inflation(&clean, &world.letters, &world.geolocator, &users));
        println!(
            "{exploration:<13.1}{:>20.2}{:>19.2}{:>8.2}",
            result.geo_all_roots.median(),
            result.geo_all_roots.quantile(0.9),
            secs * 1e3,
        );
    }
}
