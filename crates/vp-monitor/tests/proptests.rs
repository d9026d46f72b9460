//! Merge-algebra proptests for [`vp_monitor::DriftSummary`]: associative,
//! commutative, empty identity — the same contract `SimStats` and
//! `Registry` carry, and the property that makes windowed drift summaries
//! fold to the same totals however monitoring windows are grouped.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vp_monitor::alert::AlertConfig;
use vp_monitor::diff::{diff_sequence, DriftSummary, Origins, RoundDiff};
use vp_monitor::pipeline::run_diff_pipeline;
use vp_monitor::stream::DriftTracker;
use verfploeter::catchment::CatchmentMap;
use vp_bgp::SiteId;
use vp_net::{Asn, Block24};

/// A generated drift summary over a closed AS set so merges collide on
/// keys.
fn summary_strategy() -> impl Strategy<Value = DriftSummary> {
    let asn_flip = (0u32..4, 1u64..50);
    (
        (0u64..20, 0u64..500, 0u64..50, 0u64..20), // rounds/stable/flipped/to_nr
        (0u64..20, 0u64..50, 0u64..1000, 0u64..1000), // from_nr/max_flipped/rate/cover
        (0u64..1000, prop::collection::vec(asn_flip, 0..5)),
    )
        .prop_map(
            |((rounds, stable, flipped, to_nr), (from_nr, maxf, rate, cover), (share, flips))| {
                let mut s = DriftSummary {
                    rounds,
                    stable,
                    flipped,
                    to_nr,
                    from_nr,
                    max_flipped: maxf,
                    max_flip_rate_permille: rate,
                    max_coverage_drop_permille: cover,
                    max_share_delta_permille: share,
                    ..DriftSummary::default()
                };
                for (asn, n) in flips {
                    *s.flips_by_as.entry(64500 + asn).or_insert(0) += n;
                }
                s
            },
        )
}

/// A short random round sequence over a small block/site universe, so
/// flips, coverage changes and share moves all actually occur.
fn rounds_strategy() -> impl Strategy<Value = Vec<CatchmentMap>> {
    let round = prop::collection::vec((0u32..8, 0u8..3), 1..8);
    prop::collection::vec(round, 2..6).prop_map(|rounds| {
        rounds
            .into_iter()
            .enumerate()
            .map(|(i, pairs)| {
                CatchmentMap::from_pairs(
                    &format!("r{i}"),
                    pairs.into_iter().map(|(b, s)| (Block24(b), SiteId(s))),
                )
            })
            .collect()
    })
}

// vp-lint: merge-tested(DriftSummary::merge)
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn drift_summary_merge_is_associative_and_commutative(
        a in summary_strategy(),
        b in summary_strategy(),
        c in summary_strategy(),
    ) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
    }

    #[test]
    fn drift_summary_merge_empty_identity(a in summary_strategy()) {
        let mut left = DriftSummary::default();
        left.merge(&a);
        prop_assert_eq!(&left, &a);
        let mut right = a.clone();
        right.merge(&DriftSummary::default());
        prop_assert_eq!(&right, &a);
    }

    /// Splitting a real diff sequence at any point and merging the two
    /// window summaries equals summarizing the whole window at once.
    #[test]
    fn windowed_summaries_fold_like_the_whole(
        rounds in rounds_strategy(),
        split in 0usize..8,
    ) {
        let diffs: Vec<RoundDiff> = diff_sequence(&rounds, None);
        let whole = DriftSummary::accumulate(&diffs);
        let cut = split.min(diffs.len());
        let mut folded = DriftSummary::accumulate(&diffs[..cut]);
        folded.merge(&DriftSummary::accumulate(&diffs[cut..]));
        prop_assert_eq!(&folded, &whole);
        // The taxonomy partitions every previous round's responders.
        for d in &diffs {
            prop_assert_eq!(d.stable + d.flipped + d.to_nr, d.prev_blocks);
        }
    }
}

/// Origins for the proptest block universe, so per-AS flip attribution is
/// exercised on both the batch and streaming paths.
fn origins_fixture() -> Origins {
    (0u32..8).map(|b| (Block24(b), Asn(64500 + b))).collect()
}

/// Sim-time scan durations keyed by 1-based diff round — a baseline run
/// of quiet rounds with a blowup late, so the `scan-duration` rule's
/// baseline-then-compare path runs too.
fn durations_fixture(rounds: usize) -> BTreeMap<u32, u64> {
    (1..=rounds as u32)
        .map(|r| (r, if r >= 6 { 500 } else { 100 + u64::from(r) % 7 }))
        .collect()
}

/// An aggressive config so short generated sequences actually fire and
/// clear alerts (the default trigger/clear windows rarely complete in
/// 2-6 rounds).
fn twitchy_config() -> AlertConfig {
    AlertConfig {
        flip_rate_permille: 100,
        share_delta_permille: 100,
        coverage_drop_permille: 100,
        trigger_rounds: 1,
        clear_rounds: 1,
        duration_baseline_rounds: 2,
        ..AlertConfig::default()
    }
}

// Streaming-equals-batch: the DriftTracker fed one round at a time must
// reproduce run_diff_pipeline bit-for-bit — diffs, summary, transitions,
// and the canonical documents.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streaming_tracker_matches_batch_pipeline(rounds in rounds_strategy()) {
        let origins = origins_fixture();
        let durations = durations_fixture(rounds.len());
        let batch = run_diff_pipeline(
            "prop",
            &rounds,
            Some(&origins),
            Some(&durations),
            &twitchy_config(),
        );

        let mut tracker = DriftTracker::new(twitchy_config(), 3, Some(origins));
        for r in &rounds {
            let dur = durations.get(&tracker.next_round()).copied();
            tracker.observe_round(r.clone(), dur);
        }

        prop_assert_eq!(tracker.diffs(), &batch.diffs[..]);
        prop_assert_eq!(tracker.summary(), &batch.summary);
        prop_assert_eq!(tracker.transitions(), &batch.transitions[..]);
        prop_assert_eq!(tracker.alerts_snapshot(), batch.alerts);
        prop_assert_eq!(
            serde_json::to_string_pretty(&tracker.drift_doc("prop")).ok(),
            serde_json::to_string_pretty(&batch.drift_doc).ok()
        );
        prop_assert_eq!(
            serde_json::to_string_pretty(&tracker.alert_doc("prop")).ok(),
            serde_json::to_string_pretty(&batch.alert_doc).ok()
        );
    }

    /// The windowed-split fold: cutting the stream anywhere, running the
    /// tail through a second tracker resuming at the cut (it re-ingests
    /// the boundary round as its baseline), then concatenating diffs and
    /// merging summaries and windows equals the whole-stream tracker.
    #[test]
    fn streaming_split_fold_matches_whole(
        rounds in rounds_strategy(),
        split in 1usize..6,
    ) {
        let origins = origins_fixture();
        let config = twitchy_config();
        let width = 3usize;

        let mut whole = DriftTracker::new(config.clone(), width, Some(origins.clone()));
        for r in &rounds {
            whole.observe_round(r.clone(), None);
        }

        let cut = split.min(rounds.len() - 1).max(1);
        let mut head = DriftTracker::new(config.clone(), width, Some(origins.clone()));
        for r in &rounds[..cut] {
            head.observe_round(r.clone(), None);
        }
        let mut tail =
            DriftTracker::with_start_round(config, width, Some(origins), cut as u32 - 1);
        for r in &rounds[cut - 1..] {
            tail.observe_round(r.clone(), None);
        }

        // Diffs concatenate with global round numbers intact.
        let mut diffs = head.diffs().to_vec();
        diffs.extend(tail.diffs().iter().cloned());
        prop_assert_eq!(&diffs[..], whole.diffs());

        // Summaries and rolling windows merge to the whole-stream state.
        let mut summary = head.summary().clone();
        summary.merge(tail.summary());
        prop_assert_eq!(&summary, whole.summary());

        let mut flip = head.flip_window().clone();
        flip.merge(tail.flip_window());
        prop_assert_eq!(&flip, whole.flip_window());
        let mut skew = head.skew_window().clone();
        skew.merge(tail.skew_window());
        prop_assert_eq!(&skew, whole.skew_window());
        let mut coverage = head.coverage_window().clone();
        coverage.merge(tail.coverage_window());
        prop_assert_eq!(&coverage, whole.coverage_window());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The profiler's critical path never exceeds the round it describes,
    /// however the shard spans sit relative to the root.
    #[test]
    fn critical_path_never_exceeds_the_root(
        spans in prop::collection::vec(
            // Shard codes 6 and 7 are orchestrator spans (no shard).
            (0usize..4, 0u32..8, 0u64..1_000, 0u64..600),
            1..24,
        ),
    ) {
        const NAMES: [&str; 4] = ["scan.round", "shard.compute", "scan.probe_build", "scan.merge"];
        let spans: Vec<vp_obs::FlightSpan> = spans
            .into_iter()
            .map(|(name, shard, start, len)| vp_obs::FlightSpan {
                name: NAMES[name].to_owned(),
                phase: "p".to_owned(),
                shard: (shard < 6).then_some(shard),
                start_ns: start,
                end_ns: start + len,
            })
            .collect();
        let p = vp_monitor::profile::profile_channel(&vp_obs::FlightTimeline::from_spans(spans, 0), 4);
        if let Some(cp) = p.critical_path_ns {
            prop_assert!(cp <= p.root_ns, "critical path {} > root {}", cp, p.root_ns);
        }
    }
}
