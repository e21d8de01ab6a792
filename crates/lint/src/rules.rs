//! The rule catalog and per-line checks.
//!
//! Every rule encodes one invariant the workspace's results depend on
//! (see DESIGN.md §8 for the rationale tied to the paper):
//!
//! | id | tier | invariant |
//! |----|------|-----------|
//! | D1 | deny | no `HashMap`/`HashSet` in non-test code (iteration order would leak into reports) |
//! | D2 | deny | no `Instant::now`/`SystemTime` (wall clock in a deterministic simulation) |
//! | D3 | deny | no `thread::spawn`/`std::thread` outside the pool (scheduling must go through the deterministic harness) |
//! | P1 | deny | no `unwrap()`/`expect(`/`panic!` in library-crate non-test code |
//! | N1 | deny | no `==`/`!=` against float literals |
//! | N2 | deny | no raw `f64` in public `apples-metrics` signatures that bypass the unit newtypes |
//! | H1 | deny | crate roots carry `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]` |
//! | A1 | deny | every `lint: allow` suppression states a reason |
//! | A2 | warn | no stale suppressions: an allow that matches no finding must be deleted |
//! | S1 | deny | no shared mutable state (`static mut`, interior-mutability cells, locks, `Barrier`/`Condvar`) in `crates/simnet` |
//! | S2 | deny | no RNG/hashing outside a seed-derived `apples-rng` stream |
//! | S3 | deny | no wall-clock / hash-order / address-derived value may flow into `t_ns`/`seq`/slot (ordering-taint dataflow) |
//!
//! Suppression syntax, inline or on the directly preceding comment line:
//!
//! ```text
//! // lint: allow(D2, reason = "the one sanctioned wall-clock read")
//! ```

/// Finding severity tier. CI gates on `Deny`; `Warn` is advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: reported, never fails the build.
    Warn,
    /// Gating: any deny finding makes `xp lint` exit non-zero.
    Deny,
}

impl Severity {
    /// Lower-case name used in human and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// One rule of the catalog.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Short stable identifier (`D1`, `P1`, …) used in `allow(...)`.
    pub id: &'static str,
    /// Severity tier.
    pub severity: Severity,
    /// One-line statement of the invariant.
    pub summary: &'static str,
}

/// The full catalog, in report order.
pub const CATALOG: &[Rule] = &[
    Rule {
        id: "D1",
        severity: Severity::Deny,
        summary: "HashMap/HashSet in non-test code: unordered iteration can leak into reports; \
                  use BTreeMap/BTreeSet or drain in sorted order",
    },
    Rule {
        id: "D2",
        severity: Severity::Deny,
        summary: "wall-clock read (Instant::now/SystemTime) outside the sanctioned WallClock \
                  helper: simulated results must not depend on host time",
    },
    Rule {
        id: "D3",
        severity: Severity::Deny,
        summary: "raw std::thread outside crates/bench/src/pool.rs: concurrency must go through \
                  the deterministic work-stealing Pool",
    },
    Rule {
        id: "P1",
        severity: Severity::Deny,
        summary: "unwrap()/expect(/panic! in library non-test code: return Result or document \
                  the invariant with an allow",
    },
    Rule {
        id: "N1",
        severity: Severity::Deny,
        summary: "==/!= against a float literal: use a tolerance, or allow with a reason when \
                  comparing against an exact sentinel",
    },
    Rule {
        id: "N2",
        severity: Severity::Deny,
        summary: "raw f64 in a public apples-metrics signature: route values through \
                  Quantity/unit newtypes, or allow with the dimensional reason",
    },
    Rule {
        id: "H1",
        severity: Severity::Deny,
        summary: "crate root missing #![forbid(unsafe_code)] / #![deny(missing_docs)]",
    },
    Rule {
        id: "A1",
        severity: Severity::Deny,
        summary: "lint: allow(...) without a reason: suppressions must say why",
    },
    Rule {
        id: "A2",
        severity: Severity::Warn,
        summary: "stale suppression: this allow matched no finding and must be deleted \
                  (suppressions are claims, and stale claims rot the audit trail)",
    },
    Rule {
        id: "S1",
        severity: Severity::Deny,
        summary: "shared mutable state (static mut / RefCell / Cell / UnsafeCell / locks / \
                  Barrier / Condvar) in crates/simnet: pool workers run engines on several \
                  threads at once, so state shared between engines makes results depend on \
                  scheduling",
    },
    Rule {
        id: "S2",
        severity: Severity::Deny,
        summary: "RNG or hashing outside a seed-derived apples-rng stream: results must \
                  replay from (seed, spec) alone",
    },
    Rule {
        id: "S3",
        severity: Severity::Deny,
        summary: "ordering taint: a value derived from a wall-clock read, hash-iteration \
                  order, or a pointer/address cast flows into t_ns/seq/slot (the engine's \
                  ordering key must be a pure function of the seeded simulation)",
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    CATALOG.iter().find(|r| r.id == id)
}

/// A parsed `lint: allow(<rule>, reason = "...")` suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Rule id being suppressed.
    pub rule: String,
    /// Whether a non-empty reason was given (mandatory; enforced by A1).
    pub has_reason: bool,
}

/// Parses the `lint: allow(...)` directives out of one line's comment
/// text. A directive must start the comment (`// lint: allow(...)`) so
/// prose *about* the syntax — like this sentence — is never parsed.
pub fn parse_allows(comment: &str) -> Vec<Allow> {
    let mut out = Vec::new();
    if !comment.trim_start().starts_with("lint: allow(") {
        return out;
    }
    let mut rest = comment;
    while let Some(pos) = rest.find("lint: allow(") {
        rest = &rest[pos + "lint: allow(".len()..];
        let Some(close) = rest.find(')') else { break };
        let inner = &rest[..close];
        rest = &rest[close + 1..];
        let (rule_part, reason_part) = match inner.split_once(',') {
            Some((r, rest)) => (r, Some(rest)),
            None => (inner, None),
        };
        let has_reason = reason_part.is_some_and(|r| {
            let r = r.trim();
            r.strip_prefix("reason")
                .map(str::trim_start)
                .and_then(|r| r.strip_prefix('='))
                // The comment text has literal quotes (comments are not
                // masked); require something inside them.
                .is_some_and(|v| !v.trim().trim_matches('"').trim().is_empty())
        });
        out.push(Allow { rule: rule_part.trim().to_owned(), has_reason });
    }
    out
}

/// True when `needle` occurs in `hay` as a whole token (not embedded in
/// a larger identifier).
pub fn has_token(hay: &str, needle: &str) -> bool {
    let bytes = hay.as_bytes();
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// True when a `==`/`!=` on this masked code line compares against a
/// float literal on either side (N1).
pub fn float_literal_comparison(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let two = &bytes[i..i + 2];
        if two == b"==" || two == b"!=" {
            // `<=`, `>=`, `!=...` handled: only reject `===`-like runs
            // and comparison-assignment lookalikes by checking the
            // neighbors are not themselves operator characters.
            let prev_op = i > 0 && matches!(bytes[i - 1], b'=' | b'<' | b'>' | b'!');
            let next_op = i + 2 < bytes.len() && bytes[i + 2] == b'=';
            if !prev_op && !next_op {
                let left = token_before(code, i);
                let right = token_after(code, i + 2);
                if is_float_literal(&left) || is_float_literal(&right) {
                    return true;
                }
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    false
}

/// The contiguous literal-ish token ending just before byte `end`.
fn token_before(code: &str, end: usize) -> String {
    let bytes = code.as_bytes();
    let mut i = end;
    while i > 0 && bytes[i - 1] == b' ' {
        i -= 1;
    }
    let stop = i;
    while i > 0 && (is_ident_byte(bytes[i - 1]) || bytes[i - 1] == b'.') {
        i -= 1;
    }
    // A literal preceded by an identifier char or `.` is a field access
    // (`t.0`), not a float literal: include that context so the
    // pattern check rejects it.
    code[i..stop].to_owned()
}

/// The contiguous literal-ish token starting at/after byte `start`.
fn token_after(code: &str, start: usize) -> String {
    let bytes = code.as_bytes();
    let mut i = start;
    while i < bytes.len() && bytes[i] == b' ' {
        i += 1;
    }
    if i < bytes.len() && bytes[i] == b'-' {
        i += 1;
    }
    let from = i;
    while i < bytes.len() && (is_ident_byte(bytes[i]) || bytes[i] == b'.') {
        i += 1;
    }
    code[from..i].to_owned()
}

/// Whether a token is a float literal (`1.0`, `2.`, `.5`, `1e-3`,
/// `1.5f64`), as opposed to an integer, an identifier, or a tuple-field
/// access like `pair.0`.
pub fn is_float_literal(tok: &str) -> bool {
    let tok = tok.strip_suffix("f64").or_else(|| tok.strip_suffix("f32")).unwrap_or(tok);
    if tok.is_empty() || !tok.starts_with(|c: char| c.is_ascii_digit() || c == '.') {
        return false;
    }
    let mut saw_digit = false;
    let mut saw_dot = false;
    let mut saw_exp = false;
    let mut chars = tok.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '0'..='9' | '_' => saw_digit = true,
            '.' if !saw_dot && !saw_exp => saw_dot = true,
            'e' | 'E' if saw_digit && !saw_exp => {
                saw_exp = true;
                if matches!(chars.peek(), Some('+') | Some('-')) {
                    chars.next();
                }
            }
            _ => return false,
        }
    }
    saw_digit && (saw_dot || saw_exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_ids_are_unique() {
        for (i, a) in CATALOG.iter().enumerate() {
            for b in &CATALOG[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
        assert!(rule("D1").is_some());
        assert!(rule("Z9").is_none());
    }

    #[test]
    fn allow_parsing_with_and_without_reason() {
        let a = parse_allows(" lint: allow(D1, reason = \"sorted drain below\")");
        assert_eq!(a, vec![Allow { rule: "D1".into(), has_reason: true }]);
        let b = parse_allows(" lint: allow(P1)");
        assert_eq!(b, vec![Allow { rule: "P1".into(), has_reason: false }]);
        let c = parse_allows(" lint: allow(N1, reason = \"\")");
        assert!(!c[0].has_reason, "empty reason must not count");
        assert!(parse_allows("nothing here").is_empty());
        // Prose about the syntax is not a directive.
        assert!(parse_allows("see `lint: allow(D1, reason = \"x\")` for syntax").is_empty());
    }

    #[test]
    fn token_matching_respects_boundaries() {
        assert!(has_token("use std::collections::HashMap;", "HashMap"));
        assert!(!has_token("struct MyHashMapLike;", "HashMap"));
        assert!(has_token("x.unwrap()", "unwrap"));
        assert!(!has_token("x.unwrap_or(1)", "unwrap"));
    }

    #[test]
    fn float_comparisons_detected() {
        assert!(float_literal_comparison("if x == 0.0 {"));
        assert!(float_literal_comparison("if 1.5 != y {"));
        assert!(float_literal_comparison("a == 1e-9"));
        assert!(float_literal_comparison("a == -2.5"));
        assert!(float_literal_comparison("a == 3.0f64"));
    }

    #[test]
    fn non_float_comparisons_ignored() {
        assert!(!float_literal_comparison("if x == 0 {"));
        assert!(!float_literal_comparison("if a.0 == b.1 {"));
        assert!(!float_literal_comparison("if pair.dst_ports.0 == pair.dst_ports.1 {"));
        assert!(!float_literal_comparison("x <= 0.5"));
        assert!(!float_literal_comparison("x >= 0.5"));
        assert!(!float_literal_comparison("let y = x; // no comparison"));
    }

    #[test]
    fn float_literal_shapes() {
        for ok in ["1.0", "0.", "2.5e3", "1e-9", "1.5f64", "3f32"] {
            if ok == "3f32" {
                // Integer with suffix: no dot, no exponent — not
                // detected, and that is fine (comparing `3f32` is the
                // integer-exact case).
                assert!(!is_float_literal(ok));
            } else {
                assert!(is_float_literal(ok), "{ok}");
            }
        }
        for bad in ["10", "x", "a.0", "ports.1", "", ".", "1.2.3"] {
            assert!(!is_float_literal(bad), "{bad}");
        }
    }
}
