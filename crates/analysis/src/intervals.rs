//! Interval bucketing of query streams.
//!
//! Section IV of the paper evaluates query-term popularity "at various
//! evaluation intervals" (15/30/60/120 minutes). The work is split in two
//! so a trace is tokenized once however many intervals are evaluated:
//!
//! * [`QueryTerms`] tokenizes every in-range query through the shared
//!   [`TermDict`] and stores its time and term symbols;
//! * [`IntervalIndex`] buckets those stored symbols into fixed intervals
//!   and keeps per-interval term counts — the substrate for the transient
//!   (Fig 5), stability (Fig 6) and mismatch (Fig 7) analyses.

use qcp_terms::{for_each_token, TermDict};
use qcp_util::{FxHashMap, Symbol};

/// A query trace tokenized once: per in-range query, its time and its
/// term symbols, in record order.
#[derive(Debug, Clone)]
pub struct QueryTerms {
    /// Trace length in seconds; only queries in `[0, duration)` are kept.
    duration_secs: u32,
    /// Time of each kept query.
    times: Vec<u32>,
    /// Query `i`'s terms are `symbols[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    /// Every kept query's term symbols, concatenated.
    symbols: Vec<Symbol>,
}

impl QueryTerms {
    /// Tokenizes `(time, query_text)` records with the protocol tokenizer,
    /// observing every term occurrence in `dict` (shared across analyses
    /// so file terms and query terms live in one symbol space).
    ///
    /// Records outside `[0, duration_secs)` are skipped before their
    /// terms are interned, so they take no symbol. Input need not be
    /// sorted.
    pub fn tokenize<'a, I>(records: I, duration_secs: u32, dict: &mut TermDict) -> Self
    where
        I: IntoIterator<Item = (u32, &'a str)>,
    {
        assert!(duration_secs > 0);
        let mut times = Vec::new();
        let mut offsets = vec![0];
        let mut symbols = Vec::new();
        for (time, text) in records {
            if time >= duration_secs {
                continue;
            }
            times.push(time);
            for_each_token(text, |term| symbols.push(dict.observe(term)));
            offsets.push(symbols.len());
        }
        Self {
            duration_secs,
            times,
            offsets,
            symbols,
        }
    }

    /// `(time, terms)` of every kept query, in record order.
    pub(crate) fn queries(&self) -> impl Iterator<Item = (u32, &[Symbol])> + '_ {
        self.times
            .iter()
            .zip(self.offsets.windows(2))
            .map(|(&t, w)| (t, &self.symbols[w[0]..w[1]]))
    }
}

/// Term counts for one evaluation interval.
#[derive(Debug, Clone, Default)]
pub struct IntervalCounts {
    /// Interval start, seconds since trace start.
    pub start: u32,
    /// Occurrences per term within the interval.
    pub counts: FxHashMap<Symbol, u32>,
    /// Total term occurrences in the interval.
    pub total_terms: u64,
    /// Number of queries in the interval.
    pub num_queries: u64,
}

/// A query stream bucketed into fixed evaluation intervals.
#[derive(Debug, Clone)]
pub struct IntervalIndex {
    /// Interval length in seconds.
    pub interval_secs: u32,
    /// Buckets in time order, covering `[0, duration)` exactly.
    pub intervals: Vec<IntervalCounts>,
}

impl IntervalIndex {
    /// Buckets `(time, query_text)` records: [`QueryTerms::tokenize`]
    /// followed by [`IntervalIndex::from_terms`].
    ///
    /// Records outside `[0, duration_secs)` are ignored. Input need not be
    /// sorted.
    pub fn build<'a, I>(
        records: I,
        duration_secs: u32,
        interval_secs: u32,
        dict: &mut TermDict,
    ) -> Self
    where
        I: IntoIterator<Item = (u32, &'a str)>,
    {
        Self::from_terms(
            &QueryTerms::tokenize(records, duration_secs, dict),
            interval_secs,
        )
    }

    /// Buckets an already tokenized trace into `interval_secs` intervals
    /// covering `[0, terms.duration_secs)`.
    pub fn from_terms(terms: &QueryTerms, interval_secs: u32) -> Self {
        assert!(interval_secs > 0);
        let n_intervals = terms.duration_secs.div_ceil(interval_secs) as usize;
        let mut intervals: Vec<IntervalCounts> = (0..n_intervals)
            .map(|i| IntervalCounts {
                start: i as u32 * interval_secs,
                ..Default::default()
            })
            .collect();
        for (time, symbols) in terms.queries() {
            let iv = &mut intervals[(time / interval_secs) as usize];
            iv.num_queries += 1;
            iv.total_terms += symbols.len() as u64;
            for &sym in symbols {
                *iv.counts.entry(sym).or_insert(0) += 1;
            }
        }
        Self {
            interval_secs,
            intervals,
        }
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// True when there are no intervals (cannot happen by construction).
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Total queries across all intervals.
    pub fn total_queries(&self) -> u64 {
        self.intervals.iter().map(|iv| iv.num_queries).sum()
    }

    /// All distinct terms observed in an interval, sorted (the paper's
    /// `Q_t`).
    pub fn terms_in(&self, interval: usize) -> Vec<Symbol> {
        // qcplint: allow(unordered-iter) — keys are collected and fully
        // sorted on the next line; hash order cannot reach the output.
        let mut v: Vec<Symbol> = self.intervals[interval].counts.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_index(
        records: &[(u32, &str)],
        duration: u32,
        interval: u32,
    ) -> (IntervalIndex, TermDict) {
        let mut dict = TermDict::new();
        let idx = IntervalIndex::build(records.iter().copied(), duration, interval, &mut dict);
        (idx, dict)
    }

    #[test]
    fn buckets_by_time() {
        let recs = [
            (0u32, "madonna prayer"),
            (59, "madonna"),
            (60, "nirvana"),
            (150, "nirvana teen"),
        ];
        let (idx, dict) = build_index(&recs, 180, 60);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.intervals[0].num_queries, 2);
        assert_eq!(idx.intervals[1].num_queries, 1);
        assert_eq!(idx.intervals[2].num_queries, 1);
        let madonna = dict.get("madonna").unwrap();
        assert_eq!(idx.intervals[0].counts[&madonna], 2);
        assert!(!idx.intervals[1].counts.contains_key(&madonna));
    }

    #[test]
    fn covers_duration_with_partial_last_interval() {
        let (idx, _) = build_index(&[(99, "x1 y1")], 100, 60);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.intervals[1].num_queries, 1);
    }

    #[test]
    fn out_of_range_records_ignored() {
        let (idx, _) = build_index(&[(500, "late query")], 100, 50);
        assert_eq!(idx.total_queries(), 0);
    }

    #[test]
    fn term_counts_accumulate_within_interval() {
        let recs = [(0u32, "love song"), (1, "love story"), (2, "love")];
        let (idx, dict) = build_index(&recs, 60, 60);
        let love = dict.get("love").unwrap();
        assert_eq!(idx.intervals[0].counts[&love], 3);
        assert_eq!(idx.intervals[0].total_terms, 5);
    }

    #[test]
    fn terms_in_returns_sorted_distinct() {
        let recs = [(0u32, "zz aa zz mm")];
        let (idx, _) = build_index(&recs, 60, 60);
        let terms = idx.terms_in(0);
        assert_eq!(terms.len(), 3);
        assert!(terms.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn unsorted_input_is_accepted() {
        let recs = [(150u32, "late"), (0, "early")];
        let (idx, _) = build_index(&recs, 180, 60);
        assert_eq!(idx.intervals[0].num_queries, 1);
        assert_eq!(idx.intervals[2].num_queries, 1);
    }

    #[test]
    fn out_of_range_records_take_no_symbol() {
        let mut dict = TermDict::new();
        let terms = QueryTerms::tokenize([(500u32, "late"), (5, "kept query")], 100, &mut dict);
        assert_eq!(terms.queries().count(), 1);
        assert_eq!(dict.get("late"), None);
        assert_eq!(dict.get("kept"), Some(Symbol(0)));
        let (time, syms) = terms.queries().next().unwrap();
        assert_eq!((time, syms), (5, &[Symbol(0), Symbol(1)][..]));
    }

    #[test]
    fn one_tokenization_serves_every_interval() {
        let recs = [(0u32, "aa bb"), (70, "aa"), (130, "cc aa")];
        let mut dict = TermDict::new();
        let terms = QueryTerms::tokenize(recs, 180, &mut dict);
        for interval in [30, 60, 90, 180] {
            let mut fresh = TermDict::new();
            let built = IntervalIndex::build(recs, 180, interval, &mut fresh);
            let from = IntervalIndex::from_terms(&terms, interval);
            assert_eq!(from.len(), built.len());
            for (a, b) in from.intervals.iter().zip(&built.intervals) {
                assert_eq!(a.start, b.start);
                assert_eq!(a.counts, b.counts);
                assert_eq!(
                    (a.total_terms, a.num_queries),
                    (b.total_terms, b.num_queries)
                );
            }
        }
        // Each term occurrence was observed once, not once per interval.
        assert_eq!(dict.occurrences(dict.get("aa").unwrap()), 3);
    }

    #[test]
    fn shared_dict_across_indices_aligns_symbols() {
        let mut dict = TermDict::new();
        let a = IntervalIndex::build([(0u32, "common term")], 60, 60, &mut dict);
        let b = IntervalIndex::build([(0u32, "common other")], 60, 60, &mut dict);
        let common = dict.get("common").unwrap();
        assert!(a.intervals[0].counts.contains_key(&common));
        assert!(b.intervals[0].counts.contains_key(&common));
    }
}
