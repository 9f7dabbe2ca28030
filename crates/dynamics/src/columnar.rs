//! Cohort-columnar population state for million-user populations.
//!
//! BGP's decision process sees only a user's `(source AS, location)`,
//! so every user expanded from one weighted location holds the same
//! assignment forever. The engine therefore stores assignment state
//! once per cohort, in its per-cohort state table — the only
//! assignment store — and keeps exactly one per-user value. This
//! module holds the three pieces:
//!
//! * [`Cohort`] — the expansion unit. [`expand_counts`] apportions a
//!   target population over the ~2k weighted locations; each location
//!   becomes a cohort owning a *contiguous* user-id range, so
//!   per-cohort decisions cover a slice of ids;
//! * [`UserColumns`] — the one per-member column: query volume per
//!   day, which carries a seeded per-member jitter and so is not
//!   uniform inside a cohort;
//! * [`GroupIndex`] — the inverted index `(host, scope) → cohort ids`,
//!   maintained incrementally as cohorts change winning origin group,
//!   so an epoch's invalidation set is a handful of slice iterations
//!   instead of a full-population scan.
//!
//! Everything here is deterministic: [`expand_counts`] seeds its
//! apportionment tie-breaks via [`par::seed_for`], and the index is a
//! [`DetHashMap`] of sorted vectors, so iteration order is a pure
//! function of the update sequence — byte-identical at any `--threads`
//! value.

use geo::GeoPoint;
use par::DetHashMap;
use topology::{Asn, ExportScope};

/// The per-user column: row `i` is user `i`. Everything derived from
/// the assignment (site, entry point, latency, candidate key) is
/// uniform across a cohort and lives in the engine's per-cohort state
/// table instead.
#[derive(Debug, Clone, Default)]
pub struct UserColumns {
    /// Query volume per user per day.
    pub queries_per_day: Vec<f64>,
}

/// One expansion cohort: the contiguous user-id range `start..end`
/// expanded from one weighted location. Assignment state is uniform
/// across the range (one `(source AS, location)` pair, one BGP
/// outcome), so the engine stores and re-ranks it once per cohort.
#[derive(Debug, Clone, Copy)]
pub struct Cohort {
    /// Source AS shared by every member.
    pub asn: Asn,
    /// Dense graph node index of `asn` (precomputed).
    pub src_idx: u32,
    /// Source location shared by every member.
    pub location: GeoPoint,
    /// First member's user id.
    pub start: u32,
    /// One past the last member's user id.
    pub end: u32,
    /// Sum of the members' equal weight shares (accumulated in member
    /// order, so the value is deterministic).
    pub weight: f64,
    /// Sum of member query volumes per day (member order).
    pub queries_per_day: f64,
}

impl Cohort {
    /// Number of users in the cohort.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// Whether the cohort is empty (never true for expanded cohorts).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The member range as `usize` bounds, for column slicing.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// Deterministically apportions `target` users across weighted
/// locations: every location gets at least one user, the rest follow
/// the weights by largest-remainder apportionment, with ties broken by
/// [`par::seed_for`]`(seed, index)` so the result is a pure function of
/// `(weights, target, seed)` — byte-identical at any thread count.
///
/// When `target < weights.len()` the floor of one user per location
/// wins and the expanded population is `weights.len()`.
///
/// # Panics
///
/// Panics on an empty `weights` slice.
pub fn expand_counts(weights: &[f64], target: usize, seed: u64) -> Vec<u32> {
    assert!(!weights.is_empty(), "cannot expand an empty location list");
    let n = weights.len();
    let target = target.max(n);
    let extra = (target - n) as f64;
    let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
    // Floor share of the users beyond the one-per-location minimum.
    let ideal: Vec<f64> = if total > 0.0 {
        weights.iter().map(|w| w.max(0.0) / total * extra).collect()
    } else {
        vec![extra / n as f64; n]
    };
    let mut counts: Vec<u32> = ideal.iter().map(|q| 1 + q.floor() as u32).collect();
    let assigned: u64 = counts.iter().map(|&c| c as u64).sum();
    let leftover = target as u64 - assigned;
    // Largest remainders win the leftover units; exact ties fall to the
    // seeded per-index stream, then the index.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (ideal[a] - ideal[a].floor(), ideal[b] - ideal[b].floor());
        rb.total_cmp(&ra)
            .then_with(|| par::seed_for(seed, a as u64).cmp(&par::seed_for(seed, b as u64)))
            .then(a.cmp(&b))
    });
    for &i in order.iter().take(leftover as usize) {
        counts[i] += 1;
    }
    debug_assert_eq!(counts.iter().map(|&c| c as u64).sum::<u64>(), target as u64);
    counts
}

/// The inverted index of the columnar core: which cohorts currently
/// store each `(host, scope)` origin group as their winning key, plus
/// the cohorts with no stored key at all. Maintained incrementally as
/// assignments change, so an epoch's invalidation visits only the
/// member lists of groups the epoch could have touched.
#[derive(Debug, Clone, Default)]
pub struct GroupIndex {
    /// Sorted cohort ids per stored winning group. Entries whose member
    /// list empties are removed outright.
    pub groups: DetHashMap<(Asn, ExportScope), Vec<u32>>,
    /// Sorted cohort ids with no stored candidate key (unserved since
    /// the last full wipe).
    pub unkeyed: Vec<u32>,
}

impl GroupIndex {
    /// An index where every cohort of a population of `n_cohorts` is
    /// unkeyed — the state before the first assignment.
    pub fn all_unkeyed(n_cohorts: usize) -> Self {
        Self { groups: DetHashMap::default(), unkeyed: (0..n_cohorts as u32).collect() }
    }

    /// Moves cohort `c` from group `from` to group `to` (`None` = the
    /// unkeyed bucket on either side). No-op when `from == to`.
    pub fn move_cohort(
        &mut self,
        c: u32,
        from: Option<(Asn, ExportScope)>,
        to: Option<(Asn, ExportScope)>,
    ) {
        if from == to {
            return;
        }
        match from {
            None => {
                if let Ok(pos) = self.unkeyed.binary_search(&c) {
                    self.unkeyed.remove(pos);
                }
            }
            Some(g) => {
                if let Some(members) = self.groups.get_mut(&g) {
                    if let Ok(pos) = members.binary_search(&c) {
                        members.remove(pos);
                    }
                    if members.is_empty() {
                        self.groups.remove(&g);
                    }
                }
            }
        }
        match to {
            None => {
                if let Err(pos) = self.unkeyed.binary_search(&c) {
                    self.unkeyed.insert(pos, c);
                }
            }
            Some(g) => {
                let members = self.groups.entry(g).or_default();
                if let Err(pos) = members.binary_search(&c) {
                    members.insert(pos, c);
                }
            }
        }
    }

    /// Total cohorts tracked (keyed + unkeyed) — an invariant check.
    pub fn cohort_count(&self) -> usize {
        self.unkeyed.len() + self.groups.values().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expand_counts_hits_target_exactly_with_min_one_each() {
        let weights = [5.0, 1.0, 0.0, 3.5, 0.25];
        for target in [0usize, 3, 5, 17, 1_000, 99_999] {
            let counts = expand_counts(&weights, target, 2021);
            assert_eq!(counts.len(), weights.len());
            assert!(counts.iter().all(|&c| c >= 1), "floor of one user per location");
            let total: u64 = counts.iter().map(|&c| c as u64).sum();
            assert_eq!(total, target.max(weights.len()) as u64);
        }
    }

    #[test]
    fn expand_counts_is_deterministic_and_seed_sensitive() {
        // Equal weights force remainder ties, the case the seed breaks.
        let weights = vec![1.0; 7];
        let a = expand_counts(&weights, 24, 2021);
        let b = expand_counts(&weights, 24, 2021);
        assert_eq!(a, b);
        let differs = (0..64).any(|s| expand_counts(&weights, 24, s) != a);
        assert!(differs, "the seed must matter for tie-heavy apportionments");
    }

    #[test]
    fn expand_counts_tracks_weights_proportionally() {
        let weights = [900.0, 90.0, 9.0, 1.0];
        let counts = expand_counts(&weights, 100_000, 7);
        assert!(counts[0] > counts[1] && counts[1] > counts[2] && counts[2] > counts[3]);
        // Within one unit of the exact quota (largest remainder bound),
        // modulo the one-per-location floor.
        let total: f64 = weights.iter().sum();
        let extra = (100_000 - weights.len()) as f64;
        for (w, &c) in weights.iter().zip(&counts) {
            let quota = 1.0 + w / total * extra;
            assert!((c as f64 - quota).abs() <= 1.0, "count {c} too far from quota {quota}");
        }
    }

    #[test]
    fn group_index_moves_preserve_membership_and_drop_empties() {
        let g1 = (Asn(10), ExportScope::Global);
        let g2 = (Asn(20), ExportScope::Local);
        let mut idx = GroupIndex::all_unkeyed(4);
        assert_eq!(idx.unkeyed, vec![0, 1, 2, 3]);
        idx.move_cohort(2, None, Some(g1));
        idx.move_cohort(0, None, Some(g1));
        idx.move_cohort(3, None, Some(g2));
        assert_eq!(idx.unkeyed, vec![1]);
        assert_eq!(idx.groups[&g1], vec![0, 2], "member lists stay sorted");
        assert_eq!(idx.cohort_count(), 4);
        // Group-to-group move; the emptied entry disappears.
        idx.move_cohort(3, Some(g2), Some(g1));
        assert!(!idx.groups.contains_key(&g2));
        assert_eq!(idx.groups[&g1], vec![0, 2, 3]);
        // Back to unkeyed; same-group moves are no-ops.
        idx.move_cohort(2, Some(g1), None);
        idx.move_cohort(0, Some(g1), Some(g1));
        assert_eq!(idx.unkeyed, vec![1, 2]);
        assert_eq!(idx.groups[&g1], vec![0, 3]);
        assert_eq!(idx.cohort_count(), 4);
    }
}
