//! Differential tests for the tokenize-once pipeline.
//!
//! Each trace is tokenized once and every analysis reads the stored
//! symbols. These tests pin the new primitives against the per-record
//! string loops they replaced, kept here as references:
//!
//! 1. **Intervals** — one [`QueryTerms`] bucketed by
//!    [`IntervalIndex::from_terms`] equals re-tokenizing the trace once
//!    per interval, bucket for bucket, with the same dictionary symbol
//!    for every term; only the dictionary's occurrence counts differ
//!    (one observation per term occurrence instead of one per pass).
//! 2. **Crawl terms** — [`FileTermPeers`] counts equal String-keyed
//!    per-term peer sets, and its symbols follow first use in record
//!    order.
//! 3. **Objects** — the sort-dedup [`ReplicationAnalysis`] counts equal
//!    hash-set counts, raw and sanitized, with duplicate `(peer, name)`
//!    records and interleaved peers.

use proptest::prelude::*;
use qcp_analysis::mismatch::popular_file_terms;
use qcp_analysis::{
    FileTermPeers, IntervalIndex, PopularityRule, QueryTerms, ReplicationAnalysis,
    TermReplicationAnalysis,
};
use qcp_terms::{sanitize_name, tokenize, TermDict};
use qcp_util::{FxHashMap, Symbol};
use std::collections::{HashMap, HashSet};

/// Short texts over a few letters, so terms repeat across records, with
/// separators, case variants and one non-ASCII letter.
const TEXT: &str = "[a-cA-Cé .'_-]{0,14}";

/// The per-interval loop `IntervalIndex::build` ran before the trace was
/// tokenized once: every query re-tokenized and observed on every pass.
fn reference_build(
    records: &[(u32, String)],
    duration_secs: u32,
    interval_secs: u32,
    dict: &mut TermDict,
) -> Vec<(u32, FxHashMap<Symbol, u32>, u64, u64)> {
    let n = duration_secs.div_ceil(interval_secs) as usize;
    let mut out: Vec<(u32, FxHashMap<Symbol, u32>, u64, u64)> = (0..n)
        .map(|i| (i as u32 * interval_secs, FxHashMap::default(), 0, 0))
        .collect();
    for (time, text) in records {
        if *time >= duration_secs {
            continue;
        }
        let iv = &mut out[(time / interval_secs) as usize];
        iv.3 += 1;
        for term in tokenize(text) {
            let sym = dict.observe(&term);
            *iv.1.entry(sym).or_insert(0) += 1;
            iv.2 += 1;
        }
    }
    out
}

fn flatten(idx: &IntervalIndex) -> Vec<(u32, FxHashMap<Symbol, u32>, u64, u64)> {
    idx.intervals
        .iter()
        .map(|iv| (iv.start, iv.counts.clone(), iv.total_terms, iv.num_queries))
        .collect()
}

/// Every symbol's string, in symbol order.
fn symbols(dict: &TermDict) -> Vec<String> {
    (0..dict.len() as u32)
        .map(|s| dict.resolve(Symbol(s)).to_string())
        .collect()
}

/// Per-key distinct-peer counts the way the hash-set code computed them.
fn hash_set_counts<K: std::hash::Hash + Eq>(
    pairs: impl IntoIterator<Item = (K, u32)>,
) -> HashMap<K, usize> {
    let mut sets: HashMap<K, HashSet<u32>> = HashMap::new();
    for (key, peer) in pairs {
        sets.entry(key).or_default().insert(peer);
    }
    sets.into_iter().map(|(k, s)| (k, s.len())).collect()
}

fn sorted_desc(mut counts: Vec<u32>) -> Vec<u32> {
    counts.sort_unstable_by(|a, b| b.cmp(a));
    counts
}

fn as_refs(records: &[(u32, String)]) -> impl Iterator<Item = (u32, &str)> {
    records.iter().map(|(p, n)| (*p, n.as_str()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One tokenization bucketed at several intervals equals one
    /// tokenization per interval, including out-of-range and unsorted
    /// records, after file terms were interned into the same dictionary.
    #[test]
    fn from_terms_equals_per_interval_tokenization(
        files in proptest::collection::vec((0u32..6, TEXT), 0..8),
        queries in proptest::collection::vec((0u32..260, TEXT), 0..60),
        duration in 1u32..200,
        intervals in proptest::collection::vec(1u32..90, 1..5),
    ) {
        let mut reference = TermDict::new();
        let mut dict = TermDict::new();
        for (_, name) in &files {
            for term in tokenize(name) {
                reference.intern(&term);
            }
        }
        FileTermPeers::build(as_refs(&files), &mut dict);
        prop_assert_eq!(symbols(&dict), symbols(&reference));

        let terms = QueryTerms::tokenize(as_refs(&queries), duration, &mut dict);
        for &interval in &intervals {
            let expected = reference_build(&queries, duration, interval, &mut reference);
            prop_assert_eq!(flatten(&IntervalIndex::from_terms(&terms, interval)), expected.clone());
            // `build` composes the same two steps.
            let mut fresh = TermDict::new();
            FileTermPeers::build(as_refs(&files), &mut fresh);
            let built = IntervalIndex::build(as_refs(&queries), duration, interval, &mut fresh);
            prop_assert_eq!(flatten(&built), expected);
            prop_assert_eq!(symbols(&fresh), symbols(&dict));
        }
        // Same symbol for every term; the reference observed each query
        // term once per pass, the single tokenization once in total.
        prop_assert_eq!(symbols(&dict), symbols(&reference));
        let passes = intervals.len() as u64;
        for s in 0..dict.len() as u32 {
            prop_assert_eq!(
                reference.occurrences(Symbol(s)),
                passes * dict.occurrences(Symbol(s))
            );
        }
    }

    /// The crawl term table counts distinct peers per term exactly as
    /// String-keyed peer sets do, and interns in record order.
    #[test]
    fn file_term_peers_equal_string_keyed_peer_sets(
        files in proptest::collection::vec((0u32..10, TEXT), 0..60),
        min_count in 1u32..4,
    ) {
        let mut dict = TermDict::new();
        let table = FileTermPeers::build(as_refs(&files), &mut dict);
        let expected = hash_set_counts(
            files.iter().flat_map(|(p, n)| tokenize(n).into_iter().map(move |t| (t, *p))),
        );
        prop_assert_eq!(table.counts().len(), expected.len());
        prop_assert!(table.counts().windows(2).all(|w| w[0].0 < w[1].0));
        for &(sym, count) in table.counts() {
            prop_assert_eq!(count as usize, expected[dict.resolve(sym)]);
        }
        let mut first_use = Vec::new();
        for (_, name) in &files {
            for term in tokenize(name) {
                if !first_use.contains(&term) {
                    first_use.push(term);
                }
            }
        }
        prop_assert_eq!(symbols(&dict), first_use);

        // Figure 3 and the popular file terms both derive from it.
        let fig3 = TermReplicationAnalysis::from_names(as_refs(&files));
        let counts: Vec<u32> = expected.values().map(|&c| c as u32).collect();
        prop_assert_eq!(fig3.counts_desc, sorted_desc(counts));
        let rule = PopularityRule::MinCount(min_count);
        let popular = popular_file_terms(as_refs(&files), rule, &mut TermDict::new());
        let by_symbol: FxHashMap<Symbol, u32> = expected
            .iter()
            .map(|(t, &c)| (dict.get(t).unwrap(), c as u32))
            .collect();
        let total = expected.values().map(|&c| c as u64).sum();
        prop_assert_eq!(popular.popular, rule.extract(&by_symbol, total));
        prop_assert_eq!(popular.unique_terms, expected.len());
    }

    /// Sort-dedup object counts equal hash-set counts, raw and sanitized,
    /// with repeated `(peer, name)` records and peers interleaved.
    #[test]
    fn replication_counts_equal_hash_set_counts(
        files in proptest::collection::vec((0u32..8, "[aAbB .-]{0,4}"), 0..80),
        repeat in 0usize..20,
    ) {
        // Re-append a prefix so some (peer, name) pairs occur twice.
        let mut records = files.clone();
        records.extend(files.iter().take(repeat).cloned());
        let raw = ReplicationAnalysis::from_names(8, as_refs(&records));
        let expected = hash_set_counts(records.iter().map(|(p, n)| (n.clone(), *p)));
        prop_assert_eq!(raw.total_copies, records.len());
        prop_assert_eq!(raw.unique_objects, expected.len());
        prop_assert_eq!(
            raw.counts_desc,
            sorted_desc(expected.values().map(|&c| c as u32).collect())
        );
        let san = ReplicationAnalysis::from_sanitized_names(8, as_refs(&records));
        let expected = hash_set_counts(records.iter().map(|(p, n)| (sanitize_name(n), *p)));
        prop_assert_eq!(san.unique_objects, expected.len());
        prop_assert_eq!(
            san.counts_desc,
            sorted_desc(expected.values().map(|&c| c as u32).collect())
        );
    }
}
