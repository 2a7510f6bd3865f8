//! A tiny self-describing edge-list text format.
//!
//! Line 1: `n m` (vertex and edge counts); then `m` lines `u v`, one edge
//! each, `0 ≤ u, v < n`. This keeps experiment inputs and outputs diffable
//! and versionable without binary formats.
//!
//! # Grammar
//!
//! - The text is split into lines at `\n` alone. Line numbers count every
//!   line from 1, skipped ones included.
//! - Whitespace is every `char` for which [`char::is_whitespace`] holds:
//!   ASCII space, tab, `\x0B`, `\x0C` and `\r`, and Unicode spaces such as
//!   U+0085, U+00A0 and U+2003. A `\r` is whitespace like any other, so
//!   CRLF line ends are accepted.
//! - A line that is empty after trimming whitespace is blank; a line whose
//!   first non-blank character is `#` is a comment. Both are skipped.
//! - The first line that is not skipped is the header: exactly two
//!   whitespace-separated tokens, `n` and `m`. Every later line that is
//!   not skipped is exactly two tokens `u v`, an edge with `u ≠ v`.
//! - A token is what [`str::parse`] accepts as a `usize`: decimal digits
//!   with an optional leading `+`, at most `usize::MAX`.
//! - Exactly `m` edge lines must follow the header. Repeats of an edge, in
//!   either orientation, are one edge of the graph.
//!
//! # Cost
//!
//! [`from_edge_list`] reads the text in one forward pass. A canonical line
//! (ASCII spaces and tabs around two runs of decimal digits, an optional
//! `\r`) is decoded in place, and blank and comment lines are skipped in
//! the same pass; every other line goes to the one tokenizer that defines
//! the grammar above, which reads a canonical line the same way. The graph
//! is then built in O(n + m) with no comparison sort (see
//! [`GraphBuilder::build`]). The edge list never reserves more than the
//! text can hold, the O(n) tables are allocated only after the whole text
//! has parsed, and a header whose tables cannot be allocated is a
//! [`GraphError::Parse`] on the header's line, not an abort. That holds
//! for every `n` whose tables no allocation can hold, more than
//! `isize::MAX` bytes (`n ≥ 2^60` on a 64-bit target); a merely huge `n` is
//! an error only where the allocator refuses it, and a system that
//! overcommits memory may instead grant the tables and kill the process as
//! it fills them.

use crate::{Graph, GraphBuilder, GraphError};
use std::fmt::Write as _;

/// Serializes a graph into the edge-list text format.
///
/// # Example
///
/// ```
/// use netdecomp_graph::{generators, io};
///
/// let g = generators::path(3);
/// let text = io::to_edge_list(&g);
/// let back = io::from_edge_list(&text)?;
/// assert_eq!(g, back);
/// # Ok::<(), netdecomp_graph::GraphError>(())
/// ```
#[must_use]
pub fn to_edge_list(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} {}", g.vertex_count(), g.edge_count());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "{u} {v}");
    }
    out
}

/// Parses the edge-list text format produced by [`to_edge_list`].
///
/// See the [module docs](self) for the grammar and the cost.
///
/// # Errors
///
/// [`GraphError::Parse`] on malformed input (missing header, non-integer
/// tokens, wrong edge count) and on a header whose vertex count cannot be
/// allocated; [`GraphError::VertexOutOfRange`] / [`GraphError::SelfLoop`]
/// for invalid edges.
pub fn from_edge_list(text: &str) -> Result<Graph, GraphError> {
    let mut lines = Scanner {
        text,
        at: 0,
        line: 0,
    };
    let (header, n, m) = loop {
        let Some((line, tokens)) = lines.next() else {
            return Err(GraphError::Parse {
                line: 1,
                reason: "missing `n m` header".into(),
            });
        };
        if let Some((n, m)) = tokens.read(line, &HEADER)? {
            break (line, n, m);
        }
    };

    // An edge line takes at least four bytes, `0 1\n`, or three if last:
    // the header cannot make the edge list reserve more than the text holds.
    let room = (text.len().saturating_sub(lines.at) + 1) / 4;
    let mut b = GraphBuilder::with_edge_capacity(n, m.min(room));
    let mut edges = 0usize;
    for (line, tokens) in lines {
        if let Some((u, v)) = tokens.read(line, &EDGE)? {
            b.add_edge(u, v)?;
            edges += 1;
        }
    }
    if edges != m {
        return Err(GraphError::Parse {
            line: header,
            reason: format!("header declared {m} edges but {edges} were listed"),
        });
    }
    b.try_build().map_err(|e| GraphError::Parse {
        line: header,
        reason: format!("cannot allocate the tables of {n} vertices: {e}"),
    })
}

/// The names a line's two tokens go by in errors, and the error for a
/// third token.
struct LineGrammar {
    first: &'static str,
    second: &'static str,
    extra: &'static str,
}

const HEADER: LineGrammar = LineGrammar {
    first: "vertex count",
    second: "edge count",
    extra: "header must be exactly `n m`",
};

const EDGE: LineGrammar = LineGrammar {
    first: "edge endpoint",
    second: "edge endpoint",
    extra: "edge line must be exactly `u v`",
};

/// The one definition of a line's grammar: `None` for a blank or comment
/// line, else exactly two `usize` tokens.
fn tokenize(
    line: &str,
    line_no: usize,
    grammar: &LineGrammar,
) -> Result<Option<(usize, usize)>, GraphError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let a = parse_token(parts.next(), line_no, grammar.first)?;
    let b = parse_token(parts.next(), line_no, grammar.second)?;
    if parts.next().is_some() {
        return Err(GraphError::Parse {
            line: line_no,
            reason: grammar.extra.into(),
        });
    }
    Ok(Some((a, b)))
}

fn parse_token(token: Option<&str>, line: usize, what: &str) -> Result<usize, GraphError> {
    let token = token.ok_or_else(|| GraphError::Parse {
        line,
        reason: format!("missing {what}"),
    })?;
    token.parse().map_err(|_| GraphError::Parse {
        line,
        reason: format!("{what} `{token}` is not a non-negative integer"),
    })
}

/// What the scanner made of one line.
enum Tokens<'a> {
    /// A blank or comment line.
    Skip,
    /// A canonical line's two numbers.
    Pair(usize, usize),
    /// Any other line, for [`tokenize`] to read.
    Other(&'a str),
}

impl Tokens<'_> {
    #[inline]
    fn read(
        self,
        line: usize,
        grammar: &LineGrammar,
    ) -> Result<Option<(usize, usize)>, GraphError> {
        match self {
            Tokens::Skip => Ok(None),
            Tokens::Pair(a, b) => Ok(Some((a, b))),
            Tokens::Other(text) => tokenize(text, line, grammar),
        }
    }
}

/// The longest digit run decoded in place: no run this long overflows a
/// `usize`, so decoding never has to decide what [`str::parse`] would.
const FAST_DIGITS: usize = usize::MAX.ilog10() as usize;

/// One forward pass over the text, a line at a time.
struct Scanner<'a> {
    text: &'a str,
    /// Where the next line starts (past the end once the text is read).
    at: usize,
    /// The number of the line last returned.
    line: usize,
}

impl<'a> Iterator for Scanner<'a> {
    /// A line's number and what it holds.
    type Item = (usize, Tokens<'a>);

    // Both of the loader's loops step the scanner; a call per line costs
    // a tenth of the scan.
    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        let bytes = self.text.as_bytes();
        if self.at >= bytes.len() {
            return None;
        }
        self.line += 1;
        let start = self.at;
        let tokens = match decode(bytes, start) {
            Some((tokens, next)) => {
                self.at = next;
                tokens
            }
            None => {
                let end = line_end(bytes, start);
                self.at = end + 1;
                Tokens::Other(&self.text[start..end])
            }
        };
        Some((self.line, tokens))
    }
}

/// Decodes the line starting at `at` if it is blank, a comment or
/// canonical, returning it with where the next line starts; `None` for any
/// other line.
#[inline]
fn decode(bytes: &[u8], at: usize) -> Option<(Tokens<'static>, usize)> {
    let i = blanks(bytes, at);
    if bytes.get(i) == Some(&b'#') {
        return Some((Tokens::Skip, line_end(bytes, i) + 1));
    }
    if let Some(next) = newline(bytes, i) {
        return Some((Tokens::Skip, next));
    }
    // `digits` stops at a non-digit, so two runs need blanks between them.
    let (a, i) = digits(bytes, i)?;
    let (b, i) = digits(bytes, blanks(bytes, i))?;
    let next = newline(bytes, blanks(bytes, i))?;
    Some((Tokens::Pair(a, b), next))
}

/// The first position at or after `i` that is not an ASCII space or tab.
#[inline]
fn blanks(bytes: &[u8], mut i: usize) -> usize {
    while let Some(b' ' | b'\t') = bytes.get(i) {
        i += 1;
    }
    i
}

/// A run of `1..=FAST_DIGITS` decimal digits at `start`: its value and the
/// position after it.
#[inline]
fn digits(bytes: &[u8], start: usize) -> Option<(usize, usize)> {
    let mut value = 0usize;
    let mut i = start;
    while let Some(&c) = bytes.get(i) {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        // Wraps only on a run too long to be decoded here.
        value = value.wrapping_mul(10).wrapping_add(usize::from(d));
        i += 1;
    }
    (i > start && i - start <= FAST_DIGITS).then_some((value, i))
}

/// Where the next line starts if the line ends at `i`, after an optional
/// `\r`: past its `\n`, or at the end of the text.
#[inline]
fn newline(bytes: &[u8], i: usize) -> Option<usize> {
    match bytes.get(i) {
        None => Some(i),
        Some(b'\n') => Some(i + 1),
        Some(b'\r') => match bytes.get(i + 1) {
            None => Some(i + 1),
            Some(b'\n') => Some(i + 2),
            Some(_) => None,
        },
        Some(_) => None,
    }
}

/// The position of the first `\n` at or after `i`, or the end of the text.
fn line_end(bytes: &[u8], i: usize) -> usize {
    bytes[i..]
        .iter()
        .position(|&c| c == b'\n')
        .map_or(bytes.len(), |k| i + k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn round_trip_random_graph() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = generators::gnp(30, 0.2, &mut rng).unwrap();
        let back = from_edge_list(&to_edge_list(&g)).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# a comment\n\n3 2\n0 1\n# another\n1 2\n";
        let g = from_edge_list(text).unwrap();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn missing_header_is_error() {
        assert!(matches!(
            from_edge_list("# only comments\n"),
            Err(GraphError::Parse { .. })
        ));
        assert!(matches!(from_edge_list(""), Err(GraphError::Parse { .. })));
    }

    #[test]
    fn bad_tokens_are_errors() {
        assert!(matches!(
            from_edge_list("3 x\n"),
            Err(GraphError::Parse { .. })
        ));
        assert!(matches!(
            from_edge_list("3 1\n0 one\n"),
            Err(GraphError::Parse { .. })
        ));
        assert!(matches!(
            from_edge_list("3 1\n0 1 2\n"),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn edge_count_mismatch_is_error() {
        let err = from_edge_list("3 2\n0 1\n").unwrap_err();
        assert!(err.to_string().contains("declared 2 edges"));
    }

    #[test]
    fn out_of_range_edge_propagates() {
        assert!(matches!(
            from_edge_list("2 1\n0 5\n"),
            Err(GraphError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = Graph::empty(4);
        assert_eq!(from_edge_list(&to_edge_list(&g)).unwrap(), g);
    }

    #[test]
    fn crlf_unicode_spaces_and_signs_read_as_the_grammar_says() {
        // U+FEFF is not whitespace, so the first line is a malformed header.
        let text = "\u{feff}# not a comment\r\n 4\u{a0}4 \r\n\t0 1\r\n+2\u{2003}1\n\
                    \u{85}3\x0b2\x0c\n  # indented comment\n1 0";
        assert_eq!(
            from_edge_list(text),
            Err(GraphError::Parse {
                line: 1,
                reason: "vertex count `\u{feff}#` is not a non-negative integer".into(),
            })
        );
        let g = from_edge_list(&text[text.find('\n').unwrap() + 1..]).unwrap();
        assert_eq!(g, Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap());
    }

    #[test]
    fn a_header_declaring_a_trillion_edges_is_a_count_mismatch() {
        assert_eq!(
            from_edge_list("3 1000000000000\n0 1\n"),
            Err(GraphError::Parse {
                line: 1,
                reason: "header declared 1000000000000 edges but 1 were listed".into(),
            })
        );
    }

    #[test]
    fn a_header_whose_tables_cannot_be_allocated_is_a_parse_error() {
        // Tables of 2^61 or `usize::MAX` words exceed `isize::MAX` bytes, so
        // no allocator is asked for them, whatever it would grant.
        for text in ["2305843009213693952 0\n", "# c\n18446744073709551615 0\n"] {
            let header = if text.starts_with('#') { 2 } else { 1 };
            match from_edge_list(text) {
                Err(GraphError::Parse { line, reason }) => {
                    assert_eq!(line, header, "{text:?}");
                    assert!(reason.starts_with("cannot allocate"), "{text:?}: {reason}");
                }
                other => panic!("{text:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn a_digit_run_reads_as_str_parse_reads_it_whatever_byte_ends_it() {
        let mut rng = StdRng::seed_from_u64(3);
        for len in 0..=21 {
            for stop in (0..=255u8).filter(|b| !b.is_ascii_digit()) {
                for tail in [0x00, 0x2f, 0x39, 0x80, 0xff] {
                    let mut bytes: Vec<u8> =
                        (0..len).map(|_| b'0' + rng.gen_range(0..10u8)).collect();
                    let run = std::str::from_utf8(&bytes).unwrap().to_owned();
                    bytes.push(stop);
                    bytes.extend([tail; 8]);
                    let want = match run.parse::<usize>() {
                        Ok(value) if len <= FAST_DIGITS => Some((value, len)),
                        _ => None,
                    };
                    assert_eq!(digits(&bytes, 0), want, "{run:?} then {stop:#x}");
                    bytes.truncate(len);
                    assert_eq!(digits(&bytes, 0), want, "{run:?} at the end");
                }
            }
        }
    }

    /// The loader [`from_edge_list`] replaced: `str::lines`, `trim` and
    /// `split_whitespace` on every line, then the sort-based build. Only
    /// its edge-list reservation is left out, which aborted on a header
    /// declaring more edges than memory can hold.
    fn oracle_from_edge_list(text: &str) -> Result<Graph, GraphError> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

        let (line_no, header) = lines.next().ok_or(GraphError::Parse {
            line: 1,
            reason: "missing `n m` header".into(),
        })?;
        let mut parts = header.split_whitespace();
        let n: usize = parse_token(parts.next(), line_no, "vertex count")?;
        let m: usize = parse_token(parts.next(), line_no, "edge count")?;
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: line_no,
                reason: "header must be exactly `n m`".into(),
            });
        }

        let mut b = GraphBuilder::new(n);
        let mut edges = 0usize;
        for (line_no, line) in lines {
            let mut parts = line.split_whitespace();
            let u: usize = parse_token(parts.next(), line_no, "edge endpoint")?;
            let v: usize = parse_token(parts.next(), line_no, "edge endpoint")?;
            if parts.next().is_some() {
                return Err(GraphError::Parse {
                    line: line_no,
                    reason: "edge line must be exactly `u v`".into(),
                });
            }
            b.add_edge(u, v)?;
            edges += 1;
        }
        if edges != m {
            return Err(GraphError::Parse {
                line: line_no,
                reason: format!("header declared {m} edges but {edges} were listed"),
            });
        }
        Ok(b.build_by_sorting())
    }

    /// Whitespace the canonical decoder leaves to the tokenizer.
    const SPACES: [&str; 9] = [
        " ", "\t", "\x0b", "\x0c", "\r", "\u{85}", "\u{a0}", "\u{2003}", "\u{3000}",
    ];

    fn blank(rng: &mut StdRng) -> &'static str {
        match rng.gen_range(0..10u32) {
            0..=5 => " ",
            6 | 7 => "\t",
            _ => SPACES[rng.gen_range(0..SPACES.len())],
        }
    }

    /// A token that parses to a value below `n` (and so below 40), or, now
    /// and then, one that does not parse or lies out of range. Values that
    /// parse are kept small in headers, where the oracle would try to
    /// allocate whatever they declare.
    fn token(rng: &mut StdRng, n: usize, header: bool) -> String {
        let small = rng.gen_range(0..n.max(1));
        match rng.gen_range(0..40u32) {
            0 => format!("+{small}"),
            1 => format!("-{small}"),
            2 => format!("{small:020}"),
            3 => format!("{small:019}"),
            4 => "99999999999999999999".into(),
            5 if !header => "18446744073709551615".into(),
            6 if !header => format!("{}", n + rng.gen_range(0..3usize)),
            7 => "x".into(),
            8 => format!("{small}x"),
            9 => "0x1".into(),
            10 => String::new(),
            11 => format!("{small:0width$}", width = rng.gen_range(1..10usize)),
            12 if !header => {
                let digits = rng.gen_range(1..10u32);
                rng.gen_range(0..10usize.pow(digits)).to_string()
            }
            _ => small.to_string(),
        }
    }

    /// A random edge-list text: canonical lines, repeats and both
    /// orientations included, with every feature of the grammar mixed in;
    /// and in about half the texts a defect: a wrong or bad count, a
    /// missing header, missing or extra tokens, a bad token, a self-loop.
    fn arb_text(seed: u64) -> String {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(0..40usize);
        let lines = rng.gen_range(0..3 * n + 2);
        let declared = if rng.gen_bool(0.8) {
            lines
        } else {
            rng.gen_range(0..lines + 2)
        };
        let mut rows: Vec<Vec<String>> = Vec::new();
        if rng.gen_range(0..20u32) > 0 {
            let mut header = vec![n.to_string(), declared.to_string()];
            if rng.gen_range(0..30u32) == 0 {
                header[rng.gen_range(0..2usize)] = token(&mut rng, n.max(1), true);
            }
            rows.push(header);
        }
        for _ in 0..lines {
            if n >= 2 {
                let u = rng.gen_range(0..n);
                let v = (u + rng.gen_range(1..n)) % n;
                rows.push(vec![u.to_string(), v.to_string()]);
            } else {
                rows.push(vec![token(&mut rng, n, false), token(&mut rng, n, false)]);
            }
        }
        // Half the texts get a few defective edge lines.
        let defects = if rows.len() > 1 && rng.gen_bool(0.5) {
            rng.gen_range(1..4usize)
        } else {
            0
        };
        for _ in 0..defects {
            let at = rng.gen_range(1..rows.len());
            let row = &mut rows[at];
            match rng.gen_range(0..6u32) {
                0 => {
                    row.pop();
                }
                1 => row.push(token(&mut rng, n, false)),
                2 => row.clear(),
                3 if row.len() > 1 => row[1] = row[0].clone(),
                _ if !row.is_empty() => {
                    let k = rng.gen_range(0..row.len());
                    row[k] = token(&mut rng, n, false);
                }
                _ => {}
            }
        }
        let newline = ["\n", "\n", "\n", "\r\n"][rng.gen_range(0..4usize)];
        let mut text = String::new();
        for row in rows {
            if rng.gen_range(0..12u32) == 0 {
                text.push_str(blank(&mut rng));
                text.push_str(["", "#", "# c 1 2", "#x\u{a0}"][rng.gen_range(0..4usize)]);
                text.push_str(newline);
            }
            if rng.gen_range(0..8u32) == 0 {
                text.push_str(blank(&mut rng));
            }
            for (k, token) in row.iter().enumerate() {
                if k > 0 {
                    text.push_str(blank(&mut rng));
                    if rng.gen_range(0..6u32) == 0 {
                        text.push_str(blank(&mut rng));
                    }
                }
                text.push_str(token);
            }
            if rng.gen_range(0..8u32) == 0 {
                text.push_str(blank(&mut rng));
            }
            if rng.gen_range(0..80u32) == 0 {
                text.push('\r');
            }
            text.push_str(newline);
        }
        if rng.gen_bool(0.3) {
            let trimmed = text.trim_end_matches(['\r', '\n']).len();
            text.truncate(trimmed);
        }
        text
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4_000))]

        #[test]
        fn one_pass_loader_equals_the_line_by_line_oracle(seed in 0u64..u64::MAX) {
            let text = arb_text(seed);
            prop_assert_eq!(
                from_edge_list(&text),
                oracle_from_edge_list(&text),
                "seed {}: {:?}",
                seed,
                text
            );
        }
    }

    #[test]
    fn the_random_texts_mix_valid_texts_and_every_error() {
        let (mut ok, mut parse, mut range, mut lp) = (0, 0, 0, 0);
        for seed in 0..2_000 {
            match from_edge_list(&arb_text(seed)) {
                Ok(_) => ok += 1,
                Err(GraphError::Parse { .. }) => parse += 1,
                Err(GraphError::VertexOutOfRange { .. }) => range += 1,
                Err(GraphError::SelfLoop { .. }) => lp += 1,
                Err(e) => panic!("{e}"),
            }
        }
        assert!(
            ok > 500 && parse > 500 && range > 50 && lp > 20,
            "{ok} {parse} {range} {lp}"
        );
    }
}
