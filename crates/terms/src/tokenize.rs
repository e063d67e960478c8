//! Gnutella-protocol tokenization.
//!
//! The Gnutella v0.6 query-routing specification tokenizes names and query
//! strings by splitting on any character that is not alphanumeric, then
//! lower-casing. Multi-byte UTF-8 letters (the crawl in the paper observed
//! UTF-8 names) are kept: any Unicode alphanumeric counts as token content.
//! Tokens shorter than a configurable minimum are dropped, mirroring the
//! QRP rule that ignores very short words.

/// Tokenizer configuration.
#[derive(Debug, Clone, Copy)]
pub struct TokenizerConfig {
    /// Minimum token length in characters; shorter tokens are dropped.
    pub min_len: usize,
    /// Whether tokens are lower-cased (the protocol behaviour).
    pub lowercase: bool,
    /// Whether pure-numeric tokens are dropped (track numbers, bitrates —
    /// the paper's "0 Track" example shows these carry no identity).
    pub drop_numeric: bool,
}

impl Default for TokenizerConfig {
    fn default() -> Self {
        Self {
            min_len: 2,
            lowercase: true,
            drop_numeric: false,
        }
    }
}

/// Tokenizes with the default (protocol) configuration.
///
/// ```
/// use qcp_terms::tokenize;
///
/// assert_eq!(
///     tokenize("Aaron Neville - I Don't Know Much.mp3"),
///     vec!["aaron", "neville", "don", "know", "much", "mp3"]
/// );
/// ```
pub fn tokenize(input: &str) -> Vec<String> {
    tokenize_with(input, TokenizerConfig::default())
}

/// Tokenizes `input` according to `config`.
pub fn tokenize_with(input: &str, config: TokenizerConfig) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token_with(input, config, |t| tokens.push(t.to_owned()));
    tokens
}

/// Streams the tokens of `input` (default configuration) to `f`, in
/// order, without allocating one `String` per token.
///
/// ```
/// use qcp_terms::for_each_token;
///
/// let mut seen = Vec::new();
/// for_each_token("Björk - Jóga.MP3", |t| seen.push(t.len()));
/// assert_eq!(seen, vec![6, 5, 3]);
/// ```
pub fn for_each_token(input: &str, f: impl FnMut(&str)) {
    for_each_token_with(input, TokenizerConfig::default(), f)
}

/// Streams the tokens of `input` under `config` to `f`: every token
/// [`tokenize_with`] would return, in the same order. One buffer is
/// reused for every token.
pub fn for_each_token_with(input: &str, config: TokenizerConfig, mut f: impl FnMut(&str)) {
    let mut token = TokenBuf::default();
    for_each_content_char(input, config.lowercase, |c| match c {
        Some(c) => token.push(c),
        None => token.flush(config, &mut f),
    });
    token.flush(config, &mut f);
}

/// The token being built, with its char count and whether any char is
/// not numeric, kept as it grows so a flush need not rescan it.
#[derive(Default)]
struct TokenBuf {
    text: String,
    chars: usize,
    has_non_numeric: bool,
}

impl TokenBuf {
    fn push(&mut self, c: char) {
        self.text.push(c);
        self.chars += 1;
        self.has_non_numeric |= !c.is_numeric();
    }

    /// Hands a non-empty token that passes `config`'s filters to `f`,
    /// then starts the next token.
    fn flush(&mut self, config: TokenizerConfig, f: &mut impl FnMut(&str)) {
        if self.text.is_empty() {
            return;
        }
        if self.chars >= config.min_len && (self.has_non_numeric || !config.drop_numeric) {
            f(&self.text);
        }
        self.text.clear();
        self.chars = 0;
        self.has_non_numeric = false;
    }
}

/// Feeds `input` to `emit` one char at a time under the protocol's
/// character rule: `Some(c)` for each char of token content (lower-cased
/// when `lowercase`, so one input char may emit several) and `None` for
/// each separator. ASCII bytes take a fast path that skips UTF-8
/// decoding; for them `is_alphanumeric` and `to_lowercase` agree with
/// their ASCII forms, and every other char takes the Unicode predicates.
pub(crate) fn for_each_content_char(
    input: &str,
    lowercase: bool,
    mut emit: impl FnMut(Option<char>),
) {
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii() {
            i += 1;
            if !b.is_ascii_alphanumeric() {
                emit(None);
            } else if lowercase {
                emit(Some(char::from(b.to_ascii_lowercase())));
            } else {
                emit(Some(char::from(b)));
            }
            continue;
        }
        // A non-ASCII byte starts a multi-byte char: `i` is always on a
        // char boundary, so the decode cannot fail.
        let Some(ch) = input[i..].chars().next() else {
            break;
        };
        i += ch.len_utf8();
        if !ch.is_alphanumeric() {
            emit(None);
        } else if lowercase {
            ch.to_lowercase().for_each(|c| emit(Some(c)));
        } else {
            emit(Some(ch));
        }
    }
}

/// Tokenizes and deduplicates, preserving first-occurrence order — the term
/// *set* of a name, which is what annotation-level analysis counts.
pub fn token_set(input: &str) -> Vec<String> {
    let mut seen = qcp_util::FxHashSet::default();
    let mut tokens = Vec::new();
    for_each_token(input, |t| {
        if !seen.contains(t) {
            seen.insert(t.to_owned());
            tokens.push(t.to_owned());
        }
    });
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        let t = tokenize("Aaron Neville - I Don't Know Much.mp3");
        assert_eq!(t, vec!["aaron", "neville", "don", "know", "much", "mp3"]);
    }

    #[test]
    fn single_char_tokens_dropped_by_default() {
        let t = tokenize("a b cd");
        assert_eq!(t, vec!["cd"]);
    }

    #[test]
    fn lowercases_by_default() {
        let t = tokenize("MADONNA Like A Prayer");
        assert_eq!(t, vec!["madonna", "like", "prayer"]);
    }

    #[test]
    fn preserves_case_when_configured() {
        let cfg = TokenizerConfig {
            lowercase: false,
            ..Default::default()
        };
        let t = tokenize_with("MiXeD Case", cfg);
        assert_eq!(t, vec!["MiXeD", "Case"]);
    }

    #[test]
    fn utf8_names_tokenize() {
        let t = tokenize("Björk — Jóga.mp3");
        assert_eq!(t, vec!["björk", "jóga", "mp3"]);
    }

    #[test]
    fn numerics_kept_by_default_dropped_on_request() {
        assert_eq!(tokenize("01 Track 128kbps"), vec!["01", "track", "128kbps"]);
        let cfg = TokenizerConfig {
            drop_numeric: true,
            ..Default::default()
        };
        assert_eq!(
            tokenize_with("01 Track 128kbps", cfg),
            vec!["track", "128kbps"]
        );
    }

    #[test]
    fn empty_and_separator_only_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("--- ... ///").is_empty());
    }

    #[test]
    fn min_len_counts_chars_not_bytes() {
        // 'é' is 2 bytes but 1 char; "éa" has 2 chars and must survive.
        let t = tokenize("éa x");
        assert_eq!(t, vec!["éa"]);
    }

    #[test]
    fn token_set_deduplicates_preserving_order() {
        let t = token_set("la la land la");
        assert_eq!(t, vec!["la", "land"]);
    }

    #[test]
    fn apostrophes_split_words() {
        // Gnutella treats ' as a separator: "don't" -> "don", "t" (dropped).
        let t = tokenize("don't");
        assert_eq!(t, vec!["don"]);
    }
}
