//! The repository's benchmark: one workload per run, one caller in a
//! closed loop (each call starts when the previous one returns).
//!
//! ```text
//! perfbench --workload paper|storm|replay --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced runs (`--trace 0`) print every end-to-end metric; traced
//! runs (`--trace 1`) print every per-layer metric. The last stdout
//! line is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`; the lines before it are the human-readable report and
//! the run's facts. See README.md for the workloads and metrics.

mod paper;
mod replay_wl;
mod report;
mod setup;
mod stats;
mod storm;
mod trace;

use anycast_core::World;
use report::{Checks, Metrics};
use std::collections::BTreeMap;
use std::time::Instant;

/// The seed whose paper CSVs are committed under `results/`.
const REFERENCE_SEED: u64 = 2021;

/// World (and engine) builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Host-calibrated seconds of one pass of each workload. Passes per
/// run = `--seconds` / this (at least 2; at least 1 verified storm
/// pass), so the work and every sample count are fixed by `--seconds`,
/// not by how fast the program is.
const PAPER_PASS_S: f64 = 8.0;
const STORM_ENGINE_PASS_S: f64 = 4.0;
const STORM_VERIFIED_PASS_S: f64 = 14.0;
const REPLAY_PASS_S: f64 = 6.0;

/// Where traces and the per-seed digests are written.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (REFERENCE_SEED, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or("--seconds needs an integer in 1..=3600")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["paper", "storm", "replay"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (paper, storm, replay)"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The world's seed: `paper` builds the world from `--seed`; `storm`
/// and `replay` run on the reference world (the busiest letter there
/// has 138 sites) and take their incidents and query streams from
/// `--seed`.
fn world_seed(args: &Args) -> u64 {
    if args.workload == "paper" {
        args.seed
    } else {
        REFERENCE_SEED
    }
}

fn passes(seconds: u64, pass_s: f64) -> usize {
    ((seconds as f64 / pass_s).round() as usize).max(2)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    par::set_threads(cores.min(2));
    let mut facts: Vec<(&str, String)> = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("reference_seed", REFERENCE_SEED.to_string()),
        ("available_parallelism", cores.to_string()),
        ("par_threads", par::threads().to_string()),
        ("commit", report::commit()),
        ("rustc", report::rustc_version()),
        ("scale", setup::SCALE.to_string()),
        ("population", setup::POPULATION.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ];
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    if args.trace {
        traced(&args, &mut checks, &mut metrics, &mut facts);
    } else {
        untraced(&args, &mut checks, &mut metrics, &mut facts);
        let rss = report::peak_rss_mb();
        checks.check(rss.is_some(), || "VmHWM unavailable".into());
        metrics.set("peak_rss_mb", rss.unwrap_or(f64::NAN), "MB");
    }
    let expected: Vec<(String, &str)> = if args.trace {
        report::per_layer_names()
    } else {
        report::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    for (name, unit) in &expected {
        let ok = metrics
            .0
            .get(name)
            .is_some_and(|(v, u)| v.is_finite() && u == unit);
        checks.check(ok, || format!("metric {name} ({unit}) not measured"));
    }
    for name in metrics.0.keys() {
        checks.check(expected.iter().any(|(n, _)| n == name), || {
            format!("undeclared metric {name}")
        });
    }
    println!("# facts");
    for (k, v) in &facts {
        println!("  {k} = {v}");
    }
    println!("# metrics");
    for (name, (value, unit)) in &metrics.0 {
        println!("  {name} = {} {unit}", report::json_num(*value));
    }
    let failed_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "# checks: {} attempted, {} failed, failed_frac = {failed_frac}",
        checks.attempted, checks.failed
    );
    for m in &checks.messages {
        println!("  FAILED: {m}");
    }
    println!("{}", report::result_line(&checks, &metrics));
}

/// The end-to-end run of one workload.
fn untraced(args: &Args, checks: &mut Checks, m: &mut Metrics, facts: &mut Vec<(&str, String)>) {
    let (world, world_times) = setup::build_world(world_seed(args), SETUP_REPS);
    let world_s = stats::median(&world_times);
    let pass_times = match args.workload.as_str() {
        "paper" => {
            m.set("setup_s", world_s, "s");
            let n = passes(args.seconds, PAPER_PASS_S);
            let times = paper_passes(&world, args.seed, n, checks);
            let ids = (n * paper::static_ids().len()) as f64;
            m.set("throughput_per_s", ids / times.iter().sum::<f64>(), "1/s");
            set_ops(
                m,
                facts,
                &times.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
                "paper passes",
            );
            facts.push(("alias paper_s", "pass_s".into()));
            times
        }
        "storm" => {
            let setup = storm::StormSetup::new(&world, args.seed);
            let engine_s = stats::median(&setup.engines.time_builds(SETUP_REPS));
            m.set("setup_s", world_s + engine_s, "s");
            let engine = passes(args.seconds, STORM_ENGINE_PASS_S);
            let verified = ((args.seconds as f64 / STORM_VERIFIED_PASS_S).round() as usize).max(1);
            let times = storm_passes(&setup, args.seed, engine, verified, checks, m, facts);
            facts.push(("sites", setup.sites.to_string()));
            for s in &setup.storms {
                facts.push((s.name, format!("{} incidents", s.incidents.len())));
            }
            facts.push(("alias verify_s", "pass_s".into()));
            facts.push(("alias epoch_p50_ms", "op_p50_ms".into()));
            facts.push(("alias epoch tail (epoch_p99_ms)", "op_tail_ms".into()));
            facts.push(("alias epochs_per_s", "throughput_per_s".into()));
            times
        }
        _ => {
            let setup = replay_wl::ReplaySetup::new(&world, args.seed);
            let engine_s = stats::median(&setup.engines.time_builds(SETUP_REPS));
            m.set("setup_s", world_s + engine_s, "s");
            let n = passes(args.seconds, REPLAY_PASS_S);
            let mut times = Vec::new();
            let mut digests: Option<Vec<u64>> = None;
            for _ in 0..n {
                let (secs, out) = replay_wl::replay_pass(&setup);
                replay_wl::check_outcome(&setup, &out, checks);
                let (steps, timeline_digest) = replay_wl::engine_pass(&setup);
                checks.check(
                    timeline_digest == storm::timeline_digest(&out.timeline),
                    || "replay timeline differs from the engine-pass timeline".into(),
                );
                if times.is_empty() {
                    facts.push(("epochs", steps.len().to_string()));
                }
                times.push(secs);
                let key = format!("replay-{}", args.seed);
                check_repeats(
                    &mut digests,
                    vec![replay_wl::stream_digest(&out)],
                    &key,
                    checks,
                );
            }
            let user_windows = (setup.windows() as usize * setup::POPULATION) as f64;
            m.set(
                "throughput_per_s",
                user_windows / stats::median(&times),
                "1/s",
            );
            set_ops(
                m,
                facts,
                &times.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
                "replay calls",
            );
            facts.push(("windows", setup.windows().to_string()));
            facts.push(("alias user_windows_per_s", "throughput_per_s".into()));
            times
        }
    };
    m.set("pass_s", stats::median(&pass_times), "s");
    facts.push(("pass_times_s", format!("{pass_times:?}")));
}

/// Runs `n` paper passes with their output checks; returns the pass
/// times.
fn paper_passes(world: &World, seed: u64, n: usize, checks: &mut Checks) -> Vec<f64> {
    let mut first: Option<paper::Pass> = None;
    let mut times = Vec::new();
    for _ in 0..n {
        let pass = paper::run_pass(world);
        paper::check_pass(&pass, first.as_ref(), seed == REFERENCE_SEED, checks);
        times.push(pass.secs);
        if first.is_none() {
            check_persisted(&format!("paper-{seed}"), paper::pass_digest(&pass), checks);
            first = Some(pass);
        }
    }
    times
}

/// The storm's engine passes (timed per step) and verified passes,
/// with their checks; returns the verified pass times.
///
/// Engine passes are cheap next to verified ones (the Full-mode oracle
/// steps every epoch), so a run makes several of them per verified
/// pass. Every pass replays the same epochs (the digests check it), so
/// each epoch's latency sample is its median over the engine passes:
/// repeated timings of one epoch are not independent samples.
fn storm_passes(
    setup: &storm::StormSetup<'_>,
    seed: u64,
    engine: usize,
    verified: usize,
    checks: &mut Checks,
    m: &mut Metrics,
    facts: &mut Vec<(&str, String)>,
) -> Vec<f64> {
    let mut runs: Vec<Vec<storm::EnginePass>> = Vec::new();
    let mut digests: Option<Vec<u64>> = None;
    for _ in 0..engine {
        let pass: Vec<storm::EnginePass> = setup
            .storms
            .iter()
            .map(|s| storm::engine_pass(setup, s, checks))
            .collect();
        let pass_digests = pass
            .iter()
            .map(|ep| storm::timeline_digest(&ep.timeline))
            .collect();
        check_repeats(&mut digests, pass_digests, &format!("storm-{seed}"), checks);
        runs.push(pass);
    }
    let mut times = Vec::new();
    for _ in 0..verified {
        let mut verify_s = 0.0;
        for (s, ep) in setup.storms.iter().zip(&runs[0]) {
            let (secs, report) = storm::verified_pass(setup, s);
            storm::check_verified(s, ep, &report, checks);
            verify_s += secs;
        }
        times.push(verify_s);
    }
    // Per-epoch medians over the engine passes, with each epoch's kind.
    let flats: Vec<Vec<(storm::Kind, f64)>> = runs
        .iter()
        .map(|run| run.iter().flat_map(|ep| ep.steps.iter().copied()).collect())
        .collect();
    let n = flats[0].len();
    checks.check(flats.iter().all(|f| f.len() == n), || {
        "storm epoch count changed between engine passes".into()
    });
    let epochs: Vec<(storm::Kind, f64)> = (0..n)
        .map(|i| {
            let t: Vec<f64> = flats.iter().filter_map(|f| f.get(i).map(|s| s.1)).collect();
            (flats[0][i].0, stats::median(&t))
        })
        .collect();
    let engine_s: f64 = runs.iter().flatten().map(|ep| ep.secs).sum();
    let steps: usize = flats.iter().map(Vec::len).sum();
    m.set("throughput_per_s", steps as f64 / engine_s, "1/s");
    set_ops(
        m,
        facts,
        &epochs.iter().map(|e| e.1).collect::<Vec<_>>(),
        "epochs (EpochStepper::step)",
    );
    facts.push(("passes", format!("{engine} engine, {verified} verified")));
    for k in storm::Kind::ALL {
        let v: Vec<f64> = epochs.iter().filter(|e| e.0 == k).map(|e| e.1).collect();
        if !v.is_empty() {
            facts.push((
                k.name(),
                format!("{} epochs, median {:.3} ms", v.len(), stats::median(&v)),
            ));
        }
    }
    times
}

/// Compares this pass's digests with the first pass's, and the first
/// pass's with an earlier run's.
fn check_repeats(first: &mut Option<Vec<u64>>, now: Vec<u64>, what: &str, checks: &mut Checks) {
    match first {
        None => {
            check_persisted(what, report::digest(format!("{now:?}").as_bytes()), checks);
            *first = Some(now);
        }
        Some(f) => checks.check(*f == now, || format!("{what} changed between passes")),
    }
}

/// Compares `digest` with the one an earlier run of this checkout
/// stored under `key`, storing it when there is none: outputs at a
/// given seed must agree across runs as well as across passes.
fn check_persisted(key: &str, digest: u64, checks: &mut Checks) {
    let key: String = key
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let path = format!("{OUT_DIR}/digest-{key}.txt");
    let now = format!("{digest:016x}\n");
    match std::fs::read_to_string(&path) {
        Ok(before) => checks.check(before == now, || {
            format!("{key}: digest differs from an earlier run")
        }),
        Err(_) => {
            // Best effort: a read-only checkout only loses the
            // cross-run comparison.
            let _ = std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, now));
        }
    }
}

/// Sets `op_p50_ms` and `op_tail_ms` from the op samples, stating the
/// sample count and the tail's percentile. With fewer than eleven
/// samples no percentile has ten beyond it, and the tail is the
/// slowest sample.
fn set_ops(m: &mut Metrics, facts: &mut Vec<(&str, String)>, ops_ms: &[f64], what: &str) {
    m.set("op_p50_ms", stats::median(ops_ms), "ms");
    let tail = match stats::tail(ops_ms) {
        Some(t) => {
            facts.push((
                "op_tail",
                format!("p{:.2} of {} {what}, {} beyond", t.pct, t.samples, t.beyond),
            ));
            t.value
        }
        None => {
            facts.push((
                "op_tail",
                format!("maximum of {} {what} (fewer than 11)", ops_ms.len()),
            ));
            ops_ms.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        }
    };
    m.set("op_tail_ms", tail, "ms");
}

/// The traced run: one pass of every workload's layers with spans
/// recorded, plus one untraced and one traced pass of this workload
/// for the tracing overhead.
fn traced(args: &Args, checks: &mut Checks, m: &mut Metrics, facts: &mut Vec<(&str, String)>) {
    trace::enable();
    let (world, _) = setup::build_world(args.seed, 1);
    let reference = (args.seed != REFERENCE_SEED).then(|| setup::build_world(REFERENCE_SEED, 1).0);
    let dyn_world = reference.as_ref().unwrap_or(&world);
    stage_layers(&world, m);

    // The untraced half of the overhead comparison.
    trace::set_recording(false);
    let untraced_s = match args.workload.as_str() {
        "paper" => paper::run_pass(&world).secs,
        "storm" => {
            let setup = storm::StormSetup::new(dyn_world, args.seed);
            setup
                .storms
                .iter()
                .map(|s| storm::verified_pass(&setup, s).0)
                .sum()
        }
        _ => replay_wl::replay_pass(&replay_wl::ReplaySetup::new(dyn_world, args.seed)).0,
    };
    trace::set_recording(true);

    let paper_s = paper_layers(&world, args.seed, checks, m);
    let verify_s = storm_layers(dyn_world, args.seed, checks, m);
    let replay_s = replay_layers(dyn_world, args.seed, checks, m);
    let traced_s = match args.workload.as_str() {
        "paper" => paper_s,
        "storm" => verify_s,
        _ => replay_s,
    };
    m.set("trace.overhead_s", traced_s - untraced_s, "s");
    m.set(
        "trace.overhead_frac",
        (traced_s - untraced_s) / untraced_s,
        "frac",
    );

    let spans = trace::spans();
    let own = trace::self_seconds(&spans);
    for name in report::SPANS {
        m.set(
            format!("trace.self_s.{name}"),
            own.get(name).copied().unwrap_or(0.0),
            "s",
        );
    }
    facts.push(("spans", spans.len().to_string()));
    let path = format!("{OUT_DIR}/trace-{}-{}.jsonl", args.workload, args.seed);
    match std::fs::create_dir_all(OUT_DIR)
        .and_then(|_| std::fs::write(&path, trace::render_jsonl(&spans)))
    {
        Ok(()) => facts.push(("trace_file", path)),
        Err(e) => checks.check(false, || format!("writing {path}: {e}")),
    }
}

/// Re-invokes the pure world-construction stages on the built world's
/// inputs: topology generation, the DITL campaign, the CDN campaigns.
fn stage_layers(world: &World, m: &mut Metrics) {
    let cfg = &world.config;
    let scaled = |full: usize, min: usize| ((full as f64 * cfg.scale).round() as usize).max(min);
    let topo = topology::TopologyConfig {
        world_scale: cfg.scale,
        n_tier1: scaled(9, 4),
        transits_per_continent: scaled(5, 2),
        hosters_per_continent: scaled(26, 5),
        ixp_region_count: scaled(40, 8),
        ..topology::TopologyConfig::full(cfg.seed)
    };
    let t = Instant::now();
    {
        let _s = trace::span("topology.generate");
        std::hint::black_box(topology::InternetGenerator::generate(&topo));
    }
    m.set("topology.generate_s", t.elapsed().as_secs_f64(), "s");
    let t = Instant::now();
    {
        let _s = trace::span("workload.ditl_generate");
        std::hint::black_box(workload::DitlDataset::generate(
            &world.internet,
            &world.letters,
            &world.population,
            &world.model,
            &workload::DitlConfig {
                seed: cfg.seed ^ cfg.year as u64,
                ..Default::default()
            },
        ));
    }
    m.set("workload.ditl_s", t.elapsed().as_secs_f64(), "s");
    let t = Instant::now();
    {
        let _s = trace::span("cdn.campaigns");
        std::hint::black_box(cdn::ServerSideLogs::collect(
            &world.internet,
            &world.cdn,
            &world.model,
            cfg.log_samples,
            cfg.seed,
        ));
        std::hint::black_box(cdn::ClientMeasurements::collect(
            &world.internet,
            &world.cdn,
            &world.model,
            cfg.client_samples,
            cfg.seed,
        ));
    }
    m.set("cdn.campaigns_s", t.elapsed().as_secs_f64(), "s");
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        f64::NAN
    } else {
        num as f64 / den as f64
    }
}

/// One traced paper pass: per-id times and the resolver, route-cache
/// and BGP counters around it. Returns the pass time.
fn paper_layers(world: &World, seed: u64, checks: &mut Checks, m: &mut Metrics) -> f64 {
    let names = [
        "resolver.cache_hits",
        "resolver.user_queries",
        "route_cache.hit",
        "route_cache.miss",
        "bgp.origin_computations",
    ];
    let before: Vec<u64> = names.iter().map(|n| obs::counter_value(n)).collect();
    let pass = paper::run_pass(world);
    let d: Vec<u64> = names
        .iter()
        .zip(&before)
        .map(|(n, b)| obs::counter_value(n) - b)
        .collect();
    paper::check_pass(&pass, None, seed == REFERENCE_SEED, checks);
    for (id, secs) in &pass.per_id {
        m.set(format!("core.exp.{id}_s"), *secs, "s");
    }
    m.set("dns.resolver_hit_frac", ratio(d[0], d[1]), "frac");
    m.set(
        "topology.route_cache_hit_frac",
        ratio(d[2], d[2] + d[3]),
        "frac",
    );
    m.set("topology.origin_computations.paper", d[4] as f64, "count");
    pass.secs
}

/// One traced storm pass (engine, verified, and the hand-run lockstep
/// loop timing the verification layers). Returns the verified time.
fn storm_layers(world: &World, seed: u64, checks: &mut Checks, m: &mut Metrics) -> f64 {
    let setup = storm::StormSetup::new(world, seed);
    m.set(
        "dynamics.engine_build_s",
        stats::median(&setup.engines.time_builds(SETUP_REPS)),
        "s",
    );
    let mut by_kind: BTreeMap<storm::Kind, Vec<f64>> = BTreeMap::new();
    let (mut reused, mut recomputed, mut slice, mut origin, mut rounds) = (0, 0, 0, 0, 0);
    let (mut engine_s, mut verify_s, mut oracle_checks) = (0.0, 0.0, 0);
    let mut layers = storm::VerifyLayers::default();
    for s in &setup.storms {
        let ep = storm::engine_pass(&setup, s, checks);
        for (k, ms) in &ep.steps {
            by_kind.entry(*k).or_default().push(*ms);
        }
        reused += ep.reused;
        recomputed += ep.recomputed;
        slice += ep.slice_users;
        origin += ep.origin_computations;
        rounds += ep.controller_rounds;
        engine_s += ep.secs;
        let (secs, report) = storm::verified_pass(&setup, s);
        storm::check_verified(s, &ep, &report, checks);
        verify_s += secs;
        oracle_checks += report.oracle_checks;
        let l = storm::verify_layers(&setup, s, checks);
        layers.oracle_s += l.oracle_s;
        layers.invariants_s += l.invariants_s;
        layers.compare_s += l.compare_s;
    }
    for k in storm::Kind::ALL {
        let v = by_kind.get(&k).map_or(f64::NAN, |v| stats::median(v));
        m.set(format!("dynamics.epoch_ms.{}", k.name()), v, "ms");
    }
    m.set(
        "dynamics.reuse_frac",
        ratio(reused, reused + recomputed),
        "frac",
    );
    m.set("dynamics.slice_users", slice as f64, "count");
    m.set("topology.origin_computations.storm", origin as f64, "count");
    m.set("loadmgmt.controller_rounds", rounds as f64, "count");
    m.set("chaos.oracle_s", layers.oracle_s, "s");
    m.set("chaos.invariants_s", layers.invariants_s, "s");
    m.set("chaos.compare_s", layers.compare_s, "s");
    m.set("chaos.oracle_checks", oracle_checks as f64, "count");
    m.set(
        "chaos.verify_overhead_frac",
        (verify_s - engine_s) / verify_s,
        "frac",
    );
    verify_s
}

/// One traced replay, the same scenario's engine pass, the serving
/// kernel and column materialization. Returns the replay time.
fn replay_layers(world: &World, seed: u64, checks: &mut Checks, m: &mut Metrics) -> f64 {
    let setup = replay_wl::ReplaySetup::new(world, seed);
    let (replay_s, out) = replay_wl::replay_pass(&setup);
    replay_wl::check_outcome(&setup, &out, checks);
    let (steps, _) = replay_wl::engine_pass(&setup);
    let engine_s: f64 = steps.iter().sum::<f64>() / 1e3;
    m.set("replay.engine_s", engine_s, "s");
    m.set("replay.serve_s", replay_s - engine_s, "s");
    let (ns, _) = replay_wl::window_counts_ns_per_user(&setup, 20);
    m.set("replay.window_counts_ns_per_user", ns, "ns");
    m.set(
        "dynamics.columns_ms",
        stats::median(&replay_wl::columns_ms(&setup, 8)),
        "ms",
    );
    replay_s
}
