//! Swarm-sharded simulation: disjoint shards simulated independently and
//! merged commutatively into one byte-identical [`SimReport`].
//!
//! Every quantity a [`SimReport`] aggregates across swarms is a sum of
//! per-swarm contributions in `u64` (byte ledgers, user traffic,
//! degradation counters) or purely per-swarm (capacities, daily points), so
//! a run can be **partitioned by swarm key** into shards, each shard
//! simulated as its own [`SegmentedRun`](crate::engine::SegmentedRun), and
//! the shard reports folded back together — integer addition is commutative
//! and associative, so the fold reproduces the unsharded report **byte for
//! byte** regardless of shard order. The metro presets
//! ([`consume_local_trace::metro`]) are the designed fit: each city owns a
//! disjoint content-id range, so sharding by city *is* sharding by swarm,
//! and the per-shard streams all report the metro-wide population so user
//! tables align index-for-index.
//!
//! The payoff is peak memory, not parallelism: each shard still fans its
//! windows across [`SimConfig::threads`](crate::SimConfig), but shards run
//! **one at a time**, so only one shard's engine state (swarm machines,
//! live days, matcher scratch) is ever resident — a five-city metro peaks
//! near one city's engine footprint plus the accumulated compact reports.
//! `tests/determinism.rs` pins sharded-vs-union byte-identity at 1/2/8
//! threads.
//!
//! # Contract
//!
//! [`merge_shard_reports`] requires shards that
//!
//! 1. share the envelope (`horizon_secs`, `window_secs`, `users.len()`);
//! 2. own **disjoint swarm key sets** (duplicate keys are rejected — a
//!    swarm split across shards would double-count its windows);
//! 3. were produced by the same [`SimConfig`](crate::SimConfig) (not
//!    checkable from the reports; a mismatch shows up as a byte diff
//!    against the unsharded oracle, which the tests pin).
//!
//! Users need *not* be disjoint across shards: a user's traffic is summed
//! per swarm, and partitioning the swarms partitions the sum.

use std::fmt;

use crate::engine::Simulator;
use crate::report::{SimReport, SimWarning};
use crate::source::SessionSource;

/// A typed failure from [`merge_shard_reports`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// No shard reports were supplied.
    NoShards,
    /// A shard's horizon, window or user-table length differs from shard 0.
    EnvelopeMismatch {
        /// Index of the mismatching shard.
        shard: usize,
    },
    /// Two shards reported the same swarm key (shards must partition the
    /// swarm space).
    SwarmOverlap {
        /// A display form of the duplicated key.
        key: String,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::NoShards => write!(f, "no shard reports to merge"),
            ShardError::EnvelopeMismatch { shard } => write!(
                f,
                "shard {shard} disagrees with shard 0 on horizon, window or population"
            ),
            ShardError::SwarmOverlap { key } => {
                write!(f, "swarm {key} appears in more than one shard")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// Folds per-shard reports of one partitioned run into the report the
/// unsharded run would have produced (see the [module docs](self) for the
/// contract and the byte-identity argument). The fold is commutative:
/// shards may be supplied in any order.
///
/// Warnings: at most one [`SimWarning::SortKeyFallback`] survives, carrying
/// the element-wise maxima over the shards that warned. The metro presets
/// warn on no path (pinned by a regression test); a composition whose
/// *union* maxima overflow while every shard fits would go unwarned here —
/// acceptable, since warnings never change results.
///
/// # Errors
///
/// [`ShardError`] on an empty shard list, an envelope mismatch, or
/// overlapping swarm key sets.
pub fn merge_shard_reports(shards: Vec<SimReport>) -> Result<SimReport, ShardError> {
    let mut shards = shards.into_iter();
    let Some(mut merged) = shards.next() else {
        return Err(ShardError::NoShards);
    };
    for (i, shard) in shards.enumerate() {
        if shard.horizon_secs != merged.horizon_secs
            || shard.window_secs != merged.window_secs
            || shard.users.len() != merged.users.len()
        {
            return Err(ShardError::EnvelopeMismatch { shard: i + 1 });
        }
        merged.swarms.extend(shard.swarms);
        for (acc, add) in merged.users.iter_mut().zip(&shard.users) {
            acc.watched_bytes += add.watched_bytes;
            acc.uploaded_bytes += add.uploaded_bytes;
        }
        merged.daily.extend(shard.daily);
        merged.total.merge(&shard.total);
        merged.degradation.merge(&shard.degradation);
        merged.warnings.extend(shard.warnings);
    }

    // Per-swarm results in global key order, exactly as the unsharded
    // engine emits them; a stable sort keeps any duplicate adjacent for
    // the overlap check.
    merged.swarms.sort_by_key(|s| s.key);
    if let Some(w) = merged.swarms.windows(2).find(|w| w[0].key == w[1].key) {
        return Err(ShardError::SwarmOverlap {
            key: w[0].key.to_string(),
        });
    }

    // Day × ISP cells: regroup the shard cells per (day, isp). Ledger
    // fields are u64 sums, so the fold order never changes the bytes.
    merged.daily.sort_by_key(|c| (c.day, c.isp));
    let mut folded: Vec<crate::report::DailyIspCell> = Vec::with_capacity(merged.daily.len());
    for cell in merged.daily.drain(..) {
        match folded.last_mut() {
            Some(last) if last.day == cell.day && last.isp == cell.isp => {
                last.ledger.merge(&cell.ledger);
            }
            _ => folded.push(cell),
        }
    }
    merged.daily = folded;

    // Fold fallback warnings into one element-wise maximum.
    if !merged.warnings.is_empty() {
        let mut maxima = (0u64, 0u32, 0u32);
        for w in &merged.warnings {
            let SimWarning::SortKeyFallback {
                max_start_secs,
                max_user,
                max_content,
            } = *w;
            maxima.0 = maxima.0.max(max_start_secs);
            maxima.1 = maxima.1.max(max_user);
            maxima.2 = maxima.2.max(max_content);
        }
        merged.warnings = vec![SimWarning::SortKeyFallback {
            max_start_secs: maxima.0,
            max_user: maxima.1,
            max_content: maxima.2,
        }];
    }
    Ok(merged)
}

impl Simulator {
    /// Simulates each shard source in turn — sequentially, so only one
    /// shard's engine state is resident; each shard still parallelises
    /// across [`SimConfig::threads`](crate::SimConfig) — and merges the
    /// per-shard reports with [`merge_shard_reports`]. With shard sources
    /// that partition one workload by swarm (e.g.
    /// [`MetroTrace::shard_streams`]), the result is byte-identical to
    /// [`Simulator::simulate`] over the union source.
    ///
    /// [`MetroTrace::shard_streams`]: consume_local_trace::metro::MetroTrace::shard_streams
    ///
    /// # Errors
    ///
    /// [`ShardError`] when the shard list is empty or the shard reports
    /// violate the merge contract.
    pub fn simulate_sharded<S: SessionSource>(
        &self,
        shards: impl IntoIterator<Item = S>,
    ) -> Result<SimReport, ShardError> {
        merge_shard_reports(shards.into_iter().map(|s| self.simulate(s)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use consume_local_trace::metro::{MetroConfig, MetroTrace};

    fn tiny_metro() -> MetroTrace {
        MetroTrace::new(
            MetroConfig::five_city()
                .with_cities(3)
                .city_scaled(0.0005)
                .expect("valid scale"),
            2018,
        )
        .expect("valid config")
    }

    fn sim() -> Simulator {
        Simulator::new(SimConfig {
            threads: 2,
            ..Default::default()
        })
    }

    #[test]
    fn sharded_metro_is_byte_identical_to_union() {
        let metro = tiny_metro();
        let sim = sim();
        let union = sim.simulate(&mut metro.stream().expect("valid"));
        let sharded = sim
            .simulate_sharded(
                metro
                    .shard_streams()
                    .expect("valid")
                    .iter_mut()
                    .map(|s| &mut *s),
            )
            .expect("disjoint shards merge");
        assert_eq!(sharded, union);
        union.check_conservation().expect("conserved");
    }

    #[test]
    fn merge_is_commutative_in_shard_order() {
        let metro = tiny_metro();
        let sim = sim();
        let reports: Vec<SimReport> = metro
            .shard_streams()
            .expect("valid")
            .iter_mut()
            .map(|s| sim.simulate(s))
            .collect();
        let forward = merge_shard_reports(reports.clone()).expect("merges");
        let mut reversed = reports;
        reversed.reverse();
        assert_eq!(merge_shard_reports(reversed).expect("merges"), forward);
    }

    #[test]
    fn merge_rejects_contract_violations() {
        assert_eq!(merge_shard_reports(Vec::new()), Err(ShardError::NoShards));

        let metro = tiny_metro();
        let sim = sim();
        let reports: Vec<SimReport> = metro
            .shard_streams()
            .expect("valid")
            .iter_mut()
            .map(|s| sim.simulate(s))
            .collect();

        // Same shard twice: every key overlaps.
        let twice = vec![reports[0].clone(), reports[0].clone()];
        assert!(matches!(
            merge_shard_reports(twice),
            Err(ShardError::SwarmOverlap { .. })
        ));

        // A foreign envelope is rejected before any folding.
        let mut alien = reports[1].clone();
        alien.window_secs += 1;
        assert_eq!(
            merge_shard_reports(vec![reports[0].clone(), alien]),
            Err(ShardError::EnvelopeMismatch { shard: 1 })
        );
    }

    #[test]
    fn fallback_warnings_fold_to_elementwise_maxima() {
        let metro = tiny_metro();
        let sim = sim();
        let mut reports: Vec<SimReport> = metro
            .shard_streams()
            .expect("valid")
            .iter_mut()
            .map(|s| sim.simulate(s))
            .collect();
        reports[0].warnings = vec![SimWarning::SortKeyFallback {
            max_start_secs: 10,
            max_user: 500,
            max_content: 3,
        }];
        reports[2].warnings = vec![SimWarning::SortKeyFallback {
            max_start_secs: 7,
            max_user: 9,
            max_content: 800,
        }];
        let merged = merge_shard_reports(reports).expect("merges");
        assert_eq!(
            merged.warnings,
            vec![SimWarning::SortKeyFallback {
                max_start_secs: 10,
                max_user: 500,
                max_content: 800,
            }]
        );
    }
}
