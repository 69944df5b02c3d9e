//! Correctness properties of the striped log-linear histogram.
//!
//! Two claims carry the telemetry layer's whole value:
//!
//! 1. **Striping is invisible.** Samples recorded concurrently across
//!    many stripes (and snapshots merged across many histograms)
//!    produce *exactly* the snapshot a single-threaded, single-stripe
//!    oracle produces — bucket for bucket, plus count, sum, min, max.
//! 2. **Quantiles are honestly bounded.** Every reported quantile is
//!    within one bucket's relative error ([`relative_error_bound`],
//!    1/64) of the true order statistic of the recorded samples.
//!
//! Both are driven by proptest over adversarial sample sets: tiny
//! values in the exact region, huge values deep in the octave region,
//! duplicates, and heavy-tailed mixtures.

use proptest::prelude::*;
use proteus_obs::{relative_error_bound, HistogramSnapshot, LatencyHistogram};

/// Sample sets that exercise every bucket regime: exact small values,
/// mid-range, and deep-octave tail values. Individual samples are
/// capped at ~17 minutes so a 400-sample set cannot overflow the
/// histogram's `u64` nanosecond sum accumulator (which would need
/// ~584 years of accumulated latency — out of scope by design).
fn samples() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            0u64..64,                   // exact region
            64u64..100_000,             // a few octaves up
            100_000u64..10_000_000_000, // µs to seconds
            Just(1_000_000_000_000u64), // 1000 s spike, deep octave
        ],
        1..400,
    )
}

/// The oracle: one stripe, one thread, samples recorded in order.
fn oracle_snapshot(values: &[u64]) -> HistogramSnapshot {
    let h = LatencyHistogram::with_stripes(1);
    for &v in values {
        h.record_nanos(v);
    }
    h.snapshot()
}

/// True order statistic under the same rank rule the histogram uses:
/// rank = ⌊q·n⌋ + 1 (1-based), clamped to n.
fn true_quantile(sorted: &[u64], q: f64) -> u64 {
    if q >= 1.0 {
        return *sorted.last().expect("non-empty");
    }
    let rank = ((q * sorted.len() as f64).floor() as usize + 1).min(sorted.len());
    sorted[rank - 1]
}

proptest! {
    /// Concurrently-striped recording, and recording straight into an
    /// owned snapshot, are indistinguishable from the single-threaded
    /// oracle: the snapshot is *identical*, not merely statistically
    /// close.
    #[test]
    fn striped_concurrent_recording_equals_oracle(values in samples()) {
        let striped = std::sync::Arc::new(LatencyHistogram::with_stripes(4));
        let threads = 4;
        let chunk = values.len().div_ceil(threads);
        std::thread::scope(|s| {
            for part in values.chunks(chunk.max(1)) {
                let striped = std::sync::Arc::clone(&striped);
                s.spawn(move || {
                    for &v in part {
                        striped.record_nanos(v);
                    }
                });
            }
        });
        prop_assert_eq!(striped.snapshot(), oracle_snapshot(&values));
        // The single-owner record path lands in the same buckets.
        let mut owned = HistogramSnapshot::empty();
        for &v in &values {
            owned.record_nanos(v);
        }
        prop_assert_eq!(owned, oracle_snapshot(&values));
    }

    /// Merging per-shard snapshots equals recording everything into
    /// one histogram: `merge` is associative aggregation, losslessly.
    #[test]
    fn merged_snapshots_equal_oracle(values in samples(), parts in 1usize..6) {
        let mut merged = HistogramSnapshot::empty();
        let chunk = values.len().div_ceil(parts);
        for part in values.chunks(chunk.max(1)) {
            merged.merge(&oracle_snapshot(part));
        }
        prop_assert_eq!(merged, oracle_snapshot(&values));
    }

    /// Every reported quantile lands within one bucket's relative
    /// error of the true order statistic.
    #[test]
    fn quantiles_are_within_one_bucket_of_truth(values in samples()) {
        let snap = oracle_snapshot(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let est = snap.quantile(q).expect("non-empty").as_nanos() as f64;
            let truth = true_quantile(&sorted, q) as f64;
            let err = (est - truth).abs();
            prop_assert!(
                err <= truth * relative_error_bound() + 1.0,
                "q={} est={} truth={} err={} bound={}",
                q, est, truth, err, truth * relative_error_bound()
            );
        }
    }

    /// Count, sum, min, and max are exact (not approximated by the
    /// bucketing) for any sample set.
    #[test]
    fn scalar_stats_are_exact(values in samples()) {
        let snap = oracle_snapshot(&values);
        prop_assert_eq!(snap.count(), values.len() as u64);
        prop_assert_eq!(
            snap.sum_nanos(),
            values.iter().map(|&v| u128::from(v)).sum::<u128>()
        );
        prop_assert_eq!(
            snap.min().map(|d| d.as_nanos() as u64),
            values.iter().copied().min()
        );
        prop_assert_eq!(
            snap.max().map(|d| d.as_nanos() as u64),
            values.iter().copied().max()
        );
    }
}
