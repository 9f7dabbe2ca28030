//! The dynamics experiments obey the repo's determinism contract: the
//! per-event CSV time series are byte-identical at any `--threads`
//! value, and the `obs` counters prove the incremental engine touched
//! fewer catchment entries than a full per-event recompute would have.

use std::path::Path;
use std::process::Command;

const DYN_IDS: [&str; 6] =
    ["dynflap", "dyndrain", "dyndrain-load", "dynoutage", "dynpeer", "dynring"];

fn run_repro_ids(out: &Path, threads: u32, extra: &[&str], ids: &[&str]) {
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--seed",
            "7",
            "--scale",
            "0.12",
            "--threads",
            &threads.to_string(),
            "--out",
            out.to_str().expect("utf8 path"),
        ])
        .args(extra)
        .args(ids)
        .output()
        .expect("spawn repro");
    assert!(status.status.success(), "repro --threads {threads} failed");
}

fn run_repro(out: &Path, threads: u32) {
    run_repro_ids(out, threads, &[], &DYN_IDS);
}

fn extract_counter(metrics: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\": ");
    let at = metrics.find(&needle).unwrap_or_else(|| panic!("{name} missing"));
    metrics[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("counter value")
}

#[test]
fn dynamics_csvs_are_thread_count_invariant_and_incremental_saves_work() {
    let base = std::env::temp_dir().join("anycast-dynamics-det");
    let (d1, d8) = (base.join("t1"), base.join("t8"));
    for d in [&d1, &d8] {
        let _ = std::fs::remove_dir_all(d);
        std::fs::create_dir_all(d).expect("mkdir");
    }
    run_repro(&d1, 1);
    run_repro(&d8, 8);

    // Every dynamics artifact (timeline + summary per id) must be
    // byte-identical across thread counts.
    let extra = "dyndrain-load-ok.csv".to_string();
    for (id, third) in DYN_IDS.map(|id| (id, (id == "dyndrain-load").then(|| extra.clone()))) {
        for name in [format!("{id}.csv"), format!("{id}sum.csv")].into_iter().chain(third) {
            let a = std::fs::read(d1.join(&name)).unwrap_or_else(|_| panic!("{name} at t1"));
            let b = std::fs::read(d8.join(&name)).unwrap_or_else(|_| panic!("{name} at t8"));
            assert_eq!(a, b, "{name} differs between --threads 1 and 8");
            let data_rows = a.iter().filter(|&&c| c == b'\n').count().saturating_sub(1);
            assert!(data_rows >= 1, "{name} has no data rows");
        }
    }

    // The obs sink is part of the same contract.
    let m1 = std::fs::read(d1.join("metrics.json")).expect("metrics at t1");
    let m8 = std::fs::read(d8.join("metrics.json")).expect("metrics at t8");
    assert_eq!(m1, m8, "metrics.json differs between --threads 1 and 8");

    // The incremental engine's whole point: across the dynamics runs it
    // recomputed strictly fewer per-user assignments than the
    // full-recompute equivalent, and the ledger balances.
    let metrics = String::from_utf8(m1).expect("utf8");
    let recomputed = extract_counter(&metrics, "dynamics.assign_recomputed");
    let reused = extract_counter(&metrics, "dynamics.assign_reused");
    let full = extract_counter(&metrics, "dynamics.full_equiv");
    let events = extract_counter(&metrics, "dynamics.events_processed");
    assert!(events >= 8, "expected the scripted events to run, saw {events}");
    assert!(
        recomputed < full,
        "incremental recompute ({recomputed}) must beat full ({full})"
    );
    assert!(reused > 0, "no assignment was ever reused");
    assert_eq!(recomputed + reused, full, "recompute ledger must balance");

    // The drain ledger: every drain that started was left staged,
    // aborted, or completed — nothing leaks. `dyndrain` completes its
    // rolling drains, `dyndrain-load` aborts one and completes one, so
    // all three outcome counters are exercised (staged may be absent
    // when every drain resolves, which extract-or-zero tolerates).
    let extract_or_zero = |name: &str| {
        if metrics.contains(&format!("\"{name}\": ")) { extract_counter(&metrics, name) } else { 0 }
    };
    let started = extract_counter(&metrics, "dynamics.drain.started");
    let aborted = extract_counter(&metrics, "dynamics.drain.aborted");
    let completed = extract_counter(&metrics, "dynamics.drain.completed");
    let staged = extract_or_zero("dynamics.drain.staged");
    assert!(started >= 9, "8 rolling + 2 load drains minus overlaps, saw {started}");
    assert!(aborted >= 1, "the tight-capacity drain must abort");
    assert!(completed >= 8, "the generous and exact-fit drains must complete");
    assert_eq!(
        staged + aborted + completed,
        started,
        "drain ledger must balance: {staged} staged + {aborted} aborted + {completed} completed != {started} started"
    );
    let escalations = extract_counter(&metrics, "dynamics.drain.escalations");
    assert!(
        escalations >= started,
        "3-stage drains escalate more than once per start ({escalations} < {started})"
    );

    // The swap ledger: `dynring` promotes once and demotes once, and
    // every swap epoch is classified exactly one way.
    let promotions = extract_counter(&metrics, "dynamics.swap.promotions");
    let demotions = extract_counter(&metrics, "dynamics.swap.demotions");
    let swap_epochs = extract_counter(&metrics, "dynamics.swap.epochs");
    assert!(promotions >= 1, "dynring must promote at least once");
    assert!(demotions >= 1, "dynring must demote at least once");
    assert_eq!(
        promotions + demotions,
        swap_epochs,
        "swap ledger must balance: {promotions} promotions + {demotions} demotions != {swap_epochs} epochs"
    );
    assert!(
        extract_counter(&metrics, "dynamics.swap.users_rekeyed") > 0,
        "swaps must carry assignments across the site-id remap"
    );

    // Even the whole-deployment swap epochs reuse assignments: the
    // promotion row of dynring.csv must show `reused > 0` (a naive
    // engine would recompute every user when the deployment changes).
    let csv = std::fs::read_to_string(d1.join("dynring.csv")).expect("dynring.csv");
    let header: Vec<&str> = csv.lines().next().expect("header").split(',').collect();
    let reused_col = header.iter().position(|h| *h == "reused").expect("reused column");
    let recomputed_col = header.iter().position(|h| *h == "recomputed").expect("recomputed column");
    let promote_row: Vec<&str> = csv
        .lines()
        .find(|l| l.contains("promote R95"))
        .expect("promotion epoch row")
        .split(',')
        .collect();
    let reused: u64 = promote_row[reused_col].parse().expect("reused count");
    let recomputed: u64 = promote_row[recomputed_col].parse().expect("recomputed count");
    assert!(reused > 0, "the promotion epoch reused no assignments");
    assert!(
        recomputed < reused,
        "promotion to a superset ring should touch few users ({recomputed} recomputed vs {reused} reused)"
    );
}

/// The columnar expanded-population experiment obeys the same
/// contract: `dynscale` at a 30k `--population` override is
/// byte-identical across thread counts, and the slice-invalidation
/// counters prove epoch invalidation walked index slices instead of
/// scanning the whole population.
#[test]
fn dynscale_is_thread_count_invariant_and_slices_beat_scans() {
    let base = std::env::temp_dir().join("anycast-dynscale-det");
    let (d1, d8) = (base.join("t1"), base.join("t8"));
    for d in [&d1, &d8] {
        let _ = std::fs::remove_dir_all(d);
        std::fs::create_dir_all(d).expect("mkdir");
    }
    run_repro_ids(&d1, 1, &["--population", "30000"], &["dynscale"]);
    run_repro_ids(&d8, 8, &["--population", "30000"], &["dynscale"]);

    for name in ["dynscale.csv", "dynscalesum.csv", "metrics.json"] {
        let a = std::fs::read(d1.join(name)).unwrap_or_else(|_| panic!("{name} at t1"));
        let b = std::fs::read(d8.join(name)).unwrap_or_else(|_| panic!("{name} at t8"));
        assert_eq!(a, b, "{name} differs between --threads 1 and 8");
    }

    // The --population override reached the expander: the summary
    // reports exactly the requested population, fanned over the
    // world's weighted locations (strictly more cohorts than users
    // per cohort at this scale).
    let sum = std::fs::read_to_string(d1.join("dynscalesum.csv")).expect("dynscalesum.csv");
    assert!(sum.contains("population,30000"), "population row missing:\n{sum}");
    let cohorts: u64 = sum
        .lines()
        .find_map(|l| l.strip_prefix("cohorts,"))
        .expect("cohorts row")
        .parse()
        .expect("cohort count");
    assert!(cohorts > 100, "expected a real cohort fan-out, saw {cohorts}");

    // Slice invalidation must have visited fewer users than a
    // per-epoch population scan: the flap's down epochs touch only the
    // flapped group's slices.
    let metrics = String::from_utf8(std::fs::read(d1.join("metrics.json")).expect("metrics"))
        .expect("utf8");
    let slice = extract_counter(&metrics, "dynamics.invalidation.slice_users");
    let population = extract_counter(&metrics, "dynamics.invalidation.population");
    assert!(slice > 0, "no slices were visited");
    assert!(
        slice < population,
        "slice invalidation ({slice}) must undercut the population scan equivalent ({population})"
    );

    // And the recompute ledger still balances at the expanded scale.
    let recomputed = extract_counter(&metrics, "dynamics.assign_recomputed");
    let reused = extract_counter(&metrics, "dynamics.assign_reused");
    let full = extract_counter(&metrics, "dynamics.full_equiv");
    assert_eq!(recomputed + reused, full, "expanded recompute ledger must balance");
    assert!(recomputed < full, "the flap must not recompute the whole population every epoch");
}

/// User ids are `u32`, so a `--population` past that space is a usage
/// error (exit 2, one `error:` line) instead of a silent id wrap.
#[test]
fn population_past_the_u32_id_space_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--population", "4294967296", "dynscale"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2), "repro must refuse the population");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error: --population"), "stderr: {err}");
    assert_eq!(err.lines().count(), 1, "stderr: {err}");
}

/// The closed-loop overload family obeys the same contract: all three
/// `dynload*` ids at a 30k `--population` override are byte-identical
/// across thread counts, and the `dynamics.load.*` ledger shows the
/// controllers actually ran (rounds decided, weight shed, nothing
/// released that was never withheld).
#[test]
fn dynload_family_is_thread_count_invariant_and_ledgered() {
    let ids = ["dynload", "dynload-surge", "dynload-cascade"];
    let base = std::env::temp_dir().join("anycast-dynload-det");
    let (d1, d8) = (base.join("t1"), base.join("t8"));
    for d in [&d1, &d8] {
        let _ = std::fs::remove_dir_all(d);
        std::fs::create_dir_all(d).expect("mkdir");
    }
    run_repro_ids(&d1, 1, &["--population", "30000"], &ids);
    run_repro_ids(&d8, 8, &["--population", "30000"], &ids);

    for id in ids {
        for name in [format!("{id}.csv"), format!("{id}sum.csv")] {
            let a = std::fs::read(d1.join(&name)).unwrap_or_else(|_| panic!("{name} at t1"));
            let b = std::fs::read(d8.join(&name)).unwrap_or_else(|_| panic!("{name} at t8"));
            assert_eq!(a, b, "{name} differs between --threads 1 and 8");
        }
    }
    let m1 = std::fs::read(d1.join("metrics.json")).expect("metrics at t1");
    let m8 = std::fs::read(d8.join("metrics.json")).expect("metrics at t8");
    assert_eq!(m1, m8, "metrics.json differs between --threads 1 and 8");

    // The load ledger (summed over every controller-attached run of
    // the three experiments): controllers decided at least one round,
    // shed real weight, and released at most what they shed.
    let metrics = String::from_utf8(m1).expect("utf8");
    let rounds = extract_counter(&metrics, "dynamics.load.controller_rounds");
    let shed = extract_counter(&metrics, "dynamics.load.shed_users");
    let released = extract_counter(&metrics, "dynamics.load.released_users");
    assert!(rounds >= 3, "three scenarios × three active policies, saw {rounds} rounds");
    assert!(shed > 0, "the crowds must force real sheds");
    assert!(released <= shed, "released ({released}) cannot exceed shed ({shed})");
    assert!(
        extract_counter(&metrics, "dynamics.load.overload_ms") > 0,
        "the none-policy baselines must accrue overload time"
    );

    // The experiment's own acceptance claim, at smoke scale: the
    // distributed policy strictly beats the naive threshold on
    // user-weighted overload in every scenario.
    for id in ids {
        let sum = std::fs::read_to_string(d1.join(format!("{id}sum.csv"))).expect("sum csv");
        let header: Vec<&str> = sum.lines().next().expect("header").split(',').collect();
        let col = header
            .iter()
            .position(|h| *h == "overload_user_s")
            .expect("overload_user_s column");
        let overload = |policy: &str| -> f64 {
            sum.lines()
                .find(|l| l.starts_with(policy))
                .unwrap_or_else(|| panic!("{policy} row in {id}sum.csv"))
                .split(',')
                .nth(col)
                .expect("column")
                .parse()
                .expect("numeric overload")
        };
        let (dist, thresh) = (overload("distributed"), overload("threshold"));
        let hyst = overload("hysteresis");
        assert!(
            dist < thresh,
            "{id}: distributed ({dist}) must strictly beat threshold ({thresh})"
        );
        assert!(
            dist <= hyst && hyst <= thresh,
            "{id}: hysteresis ({hyst}) must land between distributed ({dist}) and threshold ({thresh})"
        );
    }
}
