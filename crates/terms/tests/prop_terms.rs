//! Property tests tying the tokenizer, sanitizer and matcher together.

use proptest::prelude::*;
use qcp_terms::tokenize::token_set;
use qcp_terms::{
    for_each_token_with, matches_all_terms, sanitize_name, tokenize, tokenize_with, Query,
    TermDict, TokenizerConfig,
};

/// Inputs for the differential tests: ASCII mixed with `İ` (lower-cases
/// to two chars), `ß`, `É`, `Σ`, the Kelvin sign (lower-cases to ASCII
/// `k`), Arabic-Indic digits, a Roman numeral, combining marks, an emoji
/// and a no-break space.
const MIXED: &str = "[a-zA-Z0-9 ._'/İßÉΣ\u{212a}٠-٩Ⅷ\u{0301}\u{0308}🎵\u{00a0}-]{0,60}";

/// The char-by-char tokenizer the streaming one replaced, kept as the
/// reference: every char is decoded and classified with the Unicode
/// predicates, and each finished token is filtered by counting its chars.
fn reference_tokenize(input: &str, config: TokenizerConfig) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut push = |token: String| {
        if token.chars().count() < config.min_len {
            return;
        }
        if config.drop_numeric && token.chars().all(|c| c.is_numeric()) {
            return;
        }
        tokens.push(token);
    };
    for ch in input.chars() {
        if ch.is_alphanumeric() {
            if config.lowercase {
                current.extend(ch.to_lowercase());
            } else {
                current.push(ch);
            }
        } else if !current.is_empty() {
            push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        push(current);
    }
    tokens
}

/// The char-by-char sanitizer the streaming one replaced.
fn reference_sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut pending_space = false;
    for ch in name.chars() {
        if ch.is_alphanumeric() {
            if pending_space && !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
            out.extend(ch.to_lowercase());
        } else {
            pending_space = true;
        }
    }
    out
}

/// Every tokenizer configuration the differential tests cover.
fn configs() -> Vec<TokenizerConfig> {
    let mut out = Vec::new();
    for min_len in 1..=3 {
        for lowercase in [false, true] {
            for drop_numeric in [false, true] {
                out.push(TokenizerConfig {
                    min_len,
                    lowercase,
                    drop_numeric,
                });
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Sanitization and tokenization are the same normalization at
    /// different granularities: tokenizing the sanitized name yields
    /// exactly the tokens of the raw name.
    #[test]
    fn tokenize_commutes_with_sanitize(name in ".{0,100}") {
        prop_assert_eq!(tokenize(&sanitize_name(&name)), tokenize(&name));
    }

    /// The streaming tokenizer (ASCII fast path, one reused buffer)
    /// returns exactly the reference's tokens under every configuration,
    /// and `for_each_token_with` streams them in the same order.
    #[test]
    fn tokenizer_matches_char_by_char_reference(input in MIXED) {
        for config in configs() {
            let expected = reference_tokenize(&input, config);
            prop_assert_eq!(tokenize_with(&input, config), expected.clone(), "{:?}", config);
            let mut streamed = Vec::new();
            for_each_token_with(&input, config, |t| streamed.push(t.to_owned()));
            prop_assert_eq!(streamed, expected, "{:?}", config);
        }
    }

    /// `token_set` is the reference's tokens, deduplicated in
    /// first-occurrence order.
    #[test]
    fn token_set_matches_reference(input in MIXED) {
        let mut expected: Vec<String> = Vec::new();
        for t in reference_tokenize(&input, TokenizerConfig::default()) {
            if !expected.contains(&t) {
                expected.push(t);
            }
        }
        prop_assert_eq!(token_set(&input), expected);
    }

    /// The sanitizer's ASCII fast path changes nothing.
    #[test]
    fn sanitizer_matches_char_by_char_reference(input in MIXED) {
        prop_assert_eq!(sanitize_name(&input), reference_sanitize(&input));
    }

    /// The same three, over the generic `.` pool (printable ASCII plus
    /// accented, Greek, Cyrillic, CJK and astral-plane chars).
    #[test]
    fn tokenizer_and_sanitizer_match_reference_on_any_text(input in ".{0,80}") {
        for config in configs() {
            prop_assert_eq!(
                tokenize_with(&input, config),
                reference_tokenize(&input, config),
                "{:?}",
                config
            );
        }
        prop_assert_eq!(sanitize_name(&input), reference_sanitize(&input));
    }

    /// A query built from an object's own name always matches that object
    /// (provided the name produced at least one token).
    #[test]
    fn self_query_always_matches(name in "[a-zA-Z0-9 .'_-]{2,60}") {
        let mut dict = TermDict::new();
        let mut object: Vec<_> = tokenize(&name).iter().map(|t| dict.intern(t)).collect();
        object.sort_unstable();
        object.dedup();
        let query = Query::parse(&name, |t| dict.intern(t));
        if !query.is_empty() {
            prop_assert!(query.matches(&object), "query from '{}' must match itself", name);
        }
    }

    /// Adding terms to a query can only shrink its match set.
    #[test]
    fn query_matching_is_antitone_in_terms(
        object in proptest::collection::vec(0u32..50, 1..20),
        query in proptest::collection::vec(0u32..50, 1..10),
        extra in 0u32..50,
    ) {
        use qcp_util::Symbol;
        let mut obj: Vec<Symbol> = object.iter().map(|&x| Symbol(x)).collect();
        obj.sort_unstable();
        obj.dedup();
        let mut q: Vec<Symbol> = query.iter().map(|&x| Symbol(x)).collect();
        q.sort_unstable();
        q.dedup();
        let mut q_more = q.clone();
        if let Err(pos) = q_more.binary_search(&Symbol(extra)) {
            q_more.insert(pos, Symbol(extra));
        }
        // If the larger query matches, the smaller must too.
        if matches_all_terms(&q_more, &obj) {
            prop_assert!(matches_all_terms(&q, &obj));
        }
    }

    /// Dictionary counting is exact regardless of interleaving.
    #[test]
    fn dict_occurrence_counts_are_exact(terms in proptest::collection::vec("[a-z]{2,6}", 1..100)) {
        let mut dict = TermDict::new();
        for t in &terms {
            dict.observe(t);
        }
        let mut expected: std::collections::HashMap<&str, u64> = Default::default();
        for t in &terms {
            *expected.entry(t.as_str()).or_insert(0) += 1;
        }
        for (t, &count) in &expected {
            let sym = dict.get(t).unwrap();
            prop_assert_eq!(dict.occurrences(sym), count);
        }
        prop_assert_eq!(dict.len(), expected.len());
    }

    /// top_by_occurrence is sorted by count descending.
    #[test]
    fn top_terms_sorted_by_count(terms in proptest::collection::vec("[a-c]{2}", 1..60)) {
        let mut dict = TermDict::new();
        for t in &terms {
            dict.observe(t);
        }
        let top = dict.top_by_occurrence(dict.len());
        for w in top.windows(2) {
            prop_assert!(dict.occurrences(w[0]) >= dict.occurrences(w[1]));
        }
    }
}
