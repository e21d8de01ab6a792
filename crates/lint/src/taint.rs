//! The S-family determinism rules: token-sequence checks plus an
//! intraprocedural **ordering-taint** dataflow pass over the token tree.
//!
//! The engine's whole determinism story rests on the `(t_ns, seq,
//! stage)` ordering key: every identity gate (fused-vs-unfused,
//! serial-vs-parallel) compares runs that must order events
//! identically. Three things can silently break that before any test
//! notices:
//!
//! - **S1 — shared mutable state** reachable from dispatch paths
//!   (`static mut`, `RefCell`/`Cell`/`UnsafeCell`, locks, barriers).
//!   `Pool` workers run engines on several threads at once, so state
//!   shared between engines makes results depend on scheduling.
//! - **S2 — RNG outside a seed-derived stream** (`thread_rng`,
//!   `RandomState`, `DefaultHasher`, entropy seeding). Every draw must
//!   go through `apples-rng`'s explicit streams or replay dies.
//! - **S3 — ordering taint**: a value derived from a wall-clock read,
//!   hash-iteration order, or a pointer/address cast flowing into
//!   `t_ns`, `seq`, or an event slot index. This is the dataflow
//!   rule: the *source* may be fine on its own (an allocator address is
//!   harmless until it becomes a sort key), so the pass tracks
//!   function-local taint from sources through `let` bindings, `for`
//!   patterns, and assignments into ordering sinks.
//!
//! The pass is deliberately intraprocedural and flow-insensitive (a
//! fixpoint over bindings inside one `fn` body): that is cheap, has no
//! false negatives for the single-function mutations that matter
//! (inserting `Instant::now`, a `HashMap` walk, or `&x as *const _ as
//! usize` next to the ordering key), and — measured on this workspace —
//! no false positives, because legitimate engine code never lets those
//! sources near the key at all.

use crate::lexer::{Group, TokKind, Token, Tree};
use std::collections::BTreeMap;

/// A finding produced by the token-tree rules (fed through the engine's
/// suppression machinery like any line rule).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeFinding {
    /// Rule id (`S1`, `S2`, `S3`).
    pub rule: &'static str,
    /// 0-based source line.
    pub line: usize,
    /// What was found.
    pub message: String,
}

/// Interior-mutability / shared-mutable-state types S1 rejects on the
/// engine crate: anything that lets two call sites mutate one value
/// without the borrow checker serializing them in source order, and
/// the blocking rendezvous (`Barrier`, `Condvar`) that only exist to
/// coordinate threads sharing such state.
const S1_SHARED_MUTABLE: &[&str] = &[
    "RefCell",
    "Cell",
    "UnsafeCell",
    "OnceCell",
    "OnceLock",
    "Mutex",
    "RwLock",
    "LazyLock",
    "Barrier",
    "Condvar",
];

/// RNG / hashing entry points whose output is not a pure function of a
/// checked-in seed.
const S2_UNSEEDED: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "getrandom",
    "RandomState",
    "DefaultHasher",
    "OsRng",
    "StdRng",
    "SmallRng",
];

/// Names an ordering value may be bound to: writes of tainted data into
/// these are the S3 sinks.
const S3_SINKS: &[&str] = &["t_ns", "seq", "slot", "time_ns", "when_ns"];

/// Calls whose arguments feed the scheduler's ordering key: a tainted
/// argument here is a sink hit even without a named binding.
const S3_SINK_CALLS: &[&str] = &["push", "mint", "schedule"];

/// Where each rule family applies.
fn s1_in_scope(rel: &str) -> bool {
    rel.starts_with("crates/simnet/src/")
}

fn s2_in_scope(rel: &str) -> bool {
    // The seeded-RNG crate implements the sanctioned streams; everything
    // else (engine, workloads, harness, tools) must draw through them.
    !rel.starts_with("crates/rng/src/")
}

fn s3_in_scope(rel: &str) -> bool {
    rel.starts_with("crates/simnet/src/")
}

/// Runs every S rule over one file's token stream. `test_lines[i]` says
/// whether 0-based line `i` is test code (S rules skip tests, like the
/// line rules).
pub fn analyze(rel: &str, tokens: &[Token], test_lines: &[bool]) -> Vec<TreeFinding> {
    let mut out = Vec::new();
    let in_test = |line: usize| -> bool { test_lines.get(line).copied().unwrap_or(false) };

    let code: Vec<&Token> =
        tokens.iter().filter(|t| t.kind != TokKind::Comment && !in_test(t.line)).collect();

    if s1_in_scope(rel) {
        check_s1(&code, &mut out);
    }
    if s2_in_scope(rel) {
        check_s2(&code, &mut out);
    }
    if s3_in_scope(rel) {
        let tree = crate::lexer::token_tree(tokens);
        let mut fns = Vec::new();
        collect_fn_items(&tree, &mut fns);
        for item in fns {
            if !in_test(item.body.open_line) {
                taint_fn(&item, &mut out);
            }
        }
    }

    out.sort_by(|a, b| {
        (a.line, a.rule, a.message.as_str()).cmp(&(b.line, b.rule, b.message.as_str()))
    });
    out.dedup();
    out
}

/// S1: `static mut` and interior-mutability cells in the engine crate.
fn check_s1(code: &[&Token], out: &mut Vec<TreeFinding>) {
    for pair in code.windows(2) {
        if pair[0].is_ident("static") && pair[1].is_ident("mut") {
            out.push(TreeFinding {
                rule: "S1",
                line: pair[0].line,
                message: "`static mut` shared state in the engine crate: engines running on \
                          several pool workers at once race on it, which makes event order \
                          schedule-dependent"
                    .to_owned(),
            });
        }
    }
    for tok in code {
        if tok.kind == TokKind::Ident && S1_SHARED_MUTABLE.contains(&tok.text.as_str()) {
            out.push(TreeFinding {
                rule: "S1",
                line: tok.line,
                message: format!(
                    "shared mutable state `{}` in the engine crate: interior mutability and \
                     thread rendezvous hide writes from the ordering analysis; thread state \
                     through `&mut` instead",
                    tok.text
                ),
            });
        }
    }
}

/// S2: RNG/hashing that is not a pure function of a checked-in seed.
fn check_s2(code: &[&Token], out: &mut Vec<TreeFinding>) {
    for tok in code {
        if tok.kind == TokKind::Ident && S2_UNSEEDED.contains(&tok.text.as_str()) {
            out.push(TreeFinding {
                rule: "S2",
                line: tok.line,
                message: format!(
                    "`{}` draws outside a seed-derived stream: every random value must come \
                     from apples-rng so runs replay from `(seed, spec)` alone",
                    tok.text
                ),
            });
        }
    }
}

/// One `fn` item found in the tree: its parameter group (taint can be
/// seeded by a parameter whose *type* names a source, e.g. `m:
/// &HashMap<..>`) and its body group.
struct FnItem<'t> {
    params: Option<&'t Group>,
    body: &'t Group,
}

/// Collects every `fn` item in the tree (methods inside `impl` blocks
/// included): after a `fn` ident, the first `(` sibling group is the
/// parameter list and the first `{` sibling group the body — unless a
/// `;` leaf ends the item first (trait method signatures have no body).
fn collect_fn_items<'t>(nodes: &'t [Tree], out: &mut Vec<FnItem<'t>>) {
    for (i, node) in nodes.iter().enumerate() {
        match node {
            Tree::Group(g) => collect_fn_items(&g.children, out),
            Tree::Leaf(tok) if tok.is_ident("fn") => {
                let mut params = None;
                for follower in &nodes[i + 1..] {
                    match follower {
                        Tree::Leaf(t) if t.is_punct(';') => break,
                        Tree::Group(g) if g.delim == '(' && params.is_none() => params = Some(g),
                        Tree::Group(g) if g.delim == '{' => {
                            out.push(FnItem { params, body: g });
                            // Its nested fns are found by the recursion
                            // over this same group when the outer loop
                            // reaches it.
                            break;
                        }
                        _ => {}
                    }
                }
            }
            Tree::Leaf(_) => {}
        }
    }
}

/// A flattened body token: either a real token or a group boundary
/// (kept so statement scanning can see `{`/`(` structure).
#[derive(Debug, Clone)]
enum Flat {
    Tok(Token),
    Open(char, usize),
    Close(usize),
}

impl Flat {
    fn line(&self) -> usize {
        match self {
            Flat::Tok(t) => t.line,
            Flat::Open(_, l) | Flat::Close(l) => *l,
        }
    }

    fn ident(&self) -> Option<&str> {
        match self {
            Flat::Tok(t) if t.kind == TokKind::Ident => Some(&t.text),
            _ => None,
        }
    }

    fn is_punct(&self, c: char) -> bool {
        match self {
            Flat::Tok(t) => t.is_punct(c),
            _ => false,
        }
    }
}

fn flatten(g: &Group, out: &mut Vec<Flat>) {
    for node in &g.children {
        match node {
            Tree::Leaf(t) => out.push(Flat::Tok(t.clone())),
            Tree::Group(inner) => {
                out.push(Flat::Open(inner.delim, inner.open_line));
                flatten(inner, out);
                out.push(Flat::Close(inner.open_line));
            }
        }
    }
}

/// The taint source matched at a position, if any: `(source kind,
/// tokens consumed)`.
fn source_at(flat: &[Flat], i: usize) -> Option<(&'static str, usize)> {
    match flat[i].ident()? {
        "SystemTime" => Some(("a wall-clock read", 1)),
        "Instant"
            if flat.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && flat.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && flat.get(i + 3).and_then(Flat::ident) == Some("now") =>
        {
            Some(("a wall-clock read", 4))
        }
        "as_ptr" | "as_mut_ptr" => Some(("a pointer/address cast", 1)),
        "HashMap" | "HashSet" => Some(("hash-iteration order", 1)),
        "as" if flat.get(i + 1).is_some_and(|t| t.is_punct('*'))
            && matches!(flat.get(i + 2).and_then(Flat::ident), Some("const") | Some("mut")) =>
        {
            Some(("a pointer/address cast", 3))
        }
        _ => None,
    }
}

/// True when the half-open token range carries taint: it contains a
/// source pattern or mentions an already-tainted name.
fn span_tainted(
    flat: &[Flat],
    range: std::ops::Range<usize>,
    tainted: &BTreeMap<String, &'static str>,
) -> Option<&'static str> {
    let mut i = range.start;
    while i < range.end {
        if let Some((kind, _consumed)) = source_at(flat, i) {
            return Some(kind);
        }
        if let Some(name) = flat[i].ident() {
            if let Some(kind) = tainted.get(name) {
                return Some(kind);
            }
        }
        i += 1;
    }
    None
}

/// Scans one statement-ish span `start..end` (exclusive of the
/// terminator) for `let` / `for` / assignment bindings, updating the
/// taint set and recording sink hits.
struct BodyPass<'f> {
    flat: &'f [Flat],
    tainted: BTreeMap<String, &'static str>,
    findings: Vec<(usize, String)>,
}

impl BodyPass<'_> {
    /// One fixpoint iteration; returns true when the taint set grew.
    fn iterate(&mut self) -> bool {
        let before = self.tainted.len();
        self.scan_lets();
        self.scan_fors();
        self.scan_assigns();
        self.tainted.len() > before
    }

    /// `let <pat>[: ty] = <rhs>;`
    fn scan_lets(&mut self) {
        let flat = self.flat;
        let mut i = 0;
        while i < flat.len() {
            if flat[i].ident() != Some("let") {
                i += 1;
                continue;
            }
            // Pattern idents run until `:` or `=` (or `;` = no init).
            let mut names = Vec::new();
            let mut j = i + 1;
            let mut eq = None;
            while j < flat.len() {
                if flat[j].is_punct('=') && !flat.get(j + 1).is_some_and(|t| t.is_punct('=')) {
                    eq = Some(j);
                    break;
                }
                if flat[j].is_punct(':') || flat[j].is_punct(';') {
                    break;
                }
                if let Some(name) = flat[j].ident() {
                    if !matches!(name, "mut" | "ref") {
                        names.push(name.to_owned());
                    }
                }
                j += 1;
            }
            // Skip over a type annotation to the `=` if we stopped at `:`.
            if eq.is_none() && j < flat.len() && flat[j].is_punct(':') {
                let mut k = j + 1;
                while k < flat.len() && !flat[k].is_punct('=') && !flat[k].is_punct(';') {
                    k += 1;
                }
                if k < flat.len() && flat[k].is_punct('=') {
                    eq = Some(k);
                }
            }
            let Some(eq) = eq else {
                i = j + 1;
                continue;
            };
            let end = stmt_end(flat, eq + 1);
            if let Some(kind) = span_tainted(flat, eq + 1..end, &self.tainted) {
                for name in &names {
                    self.tainted.insert(name.clone(), kind);
                    if S3_SINKS.contains(&name.as_str()) {
                        self.findings.push((
                            flat[i].line(),
                            format!(
                                "ordering key `{name}` is derived from {kind}: the `(t_ns, seq, \
                                 stage)` order must be a pure function of the seeded simulation"
                            ),
                        ));
                    }
                }
            }
            i = end;
        }
    }

    /// `for <pat> in <expr> {`
    fn scan_fors(&mut self) {
        let flat = self.flat;
        let mut i = 0;
        while i < flat.len() {
            if flat[i].ident() != Some("for") {
                i += 1;
                continue;
            }
            let mut names = Vec::new();
            let mut j = i + 1;
            while j < flat.len() && flat[j].ident() != Some("in") {
                if let Some(name) = flat[j].ident() {
                    if name != "mut" {
                        names.push(name.to_owned());
                    }
                }
                // A `for` with no `in` before a brace/semicolon (or far
                // away) is an `impl Trait for Type` / `for<'a>` header,
                // not a loop.
                if j - i > 12 || flat[j].is_punct(';') || matches!(flat[j], Flat::Open('{', _)) {
                    names.clear();
                    break;
                }
                j += 1;
            }
            if names.is_empty() || j >= flat.len() {
                i += 1;
                continue;
            }
            // Iterated expression: from after `in` to the loop body `{`.
            let mut k = j + 1;
            while k < flat.len() && !matches!(flat[k], Flat::Open('{', _)) {
                k += 1;
            }
            if let Some(kind) = span_tainted(flat, j + 1..k, &self.tainted) {
                for name in names {
                    self.tainted.insert(name, kind);
                }
            }
            i = j + 1;
        }
    }

    /// `<path> = <rhs>;` and compound assignments (`+=` etc.).
    fn scan_assigns(&mut self) {
        let flat = self.flat;
        let mut i = 1;
        while i < flat.len() {
            if !flat[i].is_punct('=') {
                i += 1;
                continue;
            }
            // Reject `==`, `<=`, `>=`, `!=`, `=>`; accept `x =` and `x +=`.
            if flat.get(i + 1).is_some_and(|t| t.is_punct('=') || t.is_punct('>')) {
                i += 2;
                continue;
            }
            let mut lhs_end = i;
            let compound = flat[i - 1].is_punct('+')
                || flat[i - 1].is_punct('-')
                || flat[i - 1].is_punct('*')
                || flat[i - 1].is_punct('/')
                || flat[i - 1].is_punct('%')
                || flat[i - 1].is_punct('|')
                || flat[i - 1].is_punct('&')
                || flat[i - 1].is_punct('^');
            if flat[i - 1].is_punct('<') || flat[i - 1].is_punct('>') || flat[i - 1].is_punct('!') {
                i += 1;
                continue;
            }
            if compound {
                lhs_end = i - 1;
            }
            // LHS: trailing ident path `a.b.c` directly before the operator.
            let mut names = Vec::new();
            let mut j = lhs_end;
            while j > 0 {
                let prev = &flat[j - 1];
                if let Some(name) = prev.ident() {
                    names.push(name.to_owned());
                    j -= 1;
                    if j > 0 && flat[j - 1].is_punct('.') {
                        j -= 1;
                        continue;
                    }
                    break;
                }
                break;
            }
            if names.is_empty() {
                i += 1;
                continue;
            }
            // A `let` initializer is scan_lets' statement, not an
            // assignment: reporting it here too would double-count.
            if j > 0 && matches!(flat[j - 1].ident(), Some("let") | Some("mut")) {
                i += 1;
                continue;
            }
            let end = stmt_end(flat, i + 1);
            if let Some(kind) = span_tainted(flat, i + 1..end, &self.tainted) {
                // Only the field/variable written becomes tainted; the
                // base object of a path (`self`) does not.
                self.tainted.insert(names[0].clone(), kind);
                for name in &names {
                    if S3_SINKS.contains(&name.as_str()) {
                        self.findings.push((
                            flat[i].line(),
                            format!(
                                "ordering key `{name}` is assigned from {kind}: the `(t_ns, \
                                 seq, stage)` order must be a pure function of the seeded \
                                 simulation"
                            ),
                        ));
                    }
                }
            }
            i = end;
        }
    }

    /// Sink calls: `push(...)` / `mint(...)` / `schedule(...)` with a
    /// tainted argument or an inline source.
    fn scan_sink_calls(&mut self) {
        let flat = self.flat;
        for i in 0..flat.len() {
            let Some(name) = flat[i].ident() else { continue };
            if !S3_SINK_CALLS.contains(&name) {
                continue;
            }
            let Some(Flat::Open('(', _)) = flat.get(i + 1) else { continue };
            // Argument span: to the matching close.
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < flat.len() {
                match flat[j] {
                    Flat::Open(..) => depth += 1,
                    Flat::Close(..) => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if let Some(kind) = span_tainted(flat, i + 2..j, &self.tainted) {
                self.findings.push((
                    flat[i].line(),
                    format!(
                        "scheduler `{name}(...)` receives a value derived from {kind}: event \
                         ordering must not depend on host state"
                    ),
                ));
            }
        }
    }
}

/// The index one past the end of the statement starting at `from`: the
/// next `;` at the current nesting depth (group boundaries tracked), or
/// the end of the body.
fn stmt_end(flat: &[Flat], from: usize) -> usize {
    let mut depth = 0i32;
    let mut i = from;
    while i < flat.len() {
        match flat[i] {
            Flat::Open(..) => depth += 1,
            Flat::Close(..) => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            _ if depth == 0 && flat[i].is_punct(';') => return i,
            _ => {}
        }
        i += 1;
    }
    flat.len()
}

/// Parameters whose declared type names a taint source seed the taint
/// set: `m: &HashMap<u64, u64>` makes `m` tainted throughout the body.
fn seed_from_params(params: &Group) -> BTreeMap<String, &'static str> {
    let mut flat = Vec::new();
    flatten(params, &mut flat);
    let mut seeded = BTreeMap::new();
    // Split the parameter list on top-level commas.
    let mut start = 0;
    let mut depth = 0i32;
    let mut cuts = Vec::new();
    for (i, f) in flat.iter().enumerate() {
        match f {
            Flat::Open(..) => depth += 1,
            Flat::Close(..) => depth -= 1,
            _ if depth == 0 && f.is_punct(',') => cuts.push(i),
            _ => {}
        }
    }
    cuts.push(flat.len());
    for cut in cuts {
        let seg = &flat[start..cut];
        start = cut + 1;
        let Some(colon) = seg.iter().position(|f| f.is_punct(':')) else { continue };
        let ty_source = (colon + 1..seg.len()).find_map(|i| match seg[i].ident() {
            Some("HashMap") | Some("HashSet") => Some("hash-iteration order"),
            Some("Instant") | Some("SystemTime") => Some("a wall-clock read"),
            _ => source_at(seg, i).map(|(kind, _)| kind),
        });
        if let Some(kind) = ty_source {
            for f in &seg[..colon] {
                if let Some(name) = f.ident() {
                    if !matches!(name, "mut" | "ref" | "self") {
                        seeded.insert(name.to_owned(), kind);
                    }
                }
            }
        }
    }
    seeded
}

/// Runs the taint fixpoint over one `fn` item.
fn taint_fn(item: &FnItem<'_>, out: &mut Vec<TreeFinding>) {
    let mut flat = Vec::new();
    flatten(item.body, &mut flat);
    let seeded = item.params.map(seed_from_params).unwrap_or_default();
    // Fast reject: a body with no source pattern and no tainted
    // parameter cannot taint anything.
    if seeded.is_empty() && (0..flat.len()).all(|i| source_at(&flat, i).is_none()) {
        return;
    }
    let mut pass = BodyPass { flat: &flat, tainted: seeded, findings: Vec::new() };
    for _ in 0..16 {
        if !pass.iterate() {
            break;
        }
    }
    // One more binding sweep so sinks assigned before their source's
    // binding iteration stabilized are still caught, then the calls.
    pass.scan_lets();
    pass.scan_assigns();
    pass.scan_sink_calls();
    pass.findings.sort();
    pass.findings.dedup();
    for (line, message) in pass.findings {
        out.push(TreeFinding { rule: "S3", line, message });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scanner::scan;

    fn run(rel: &str, src: &str) -> Vec<TreeFinding> {
        let tokens = lex(src);
        let test_lines: Vec<bool> = scan(src).into_iter().map(|l| l.in_test).collect();
        analyze(rel, &tokens, &test_lines)
    }

    #[test]
    fn s1_flags_cells_and_static_mut_in_simnet_only() {
        let src = "static mut COUNTER: u64 = 0;\nfn f(x: RefCell<u64>) {}\n";
        let hits = run("crates/simnet/src/x.rs", src);
        assert_eq!(hits.iter().filter(|f| f.rule == "S1").count(), 2, "{hits:?}");
        assert!(run("crates/core/src/x.rs", src).iter().all(|f| f.rule != "S1"));
    }

    #[test]
    fn s1_flags_rendezvous_primitives_like_cells() {
        let src = "fn f(b: &Barrier) { b.wait(); }\nfn g(c: &Condvar) {}\n";
        let hits = run("crates/simnet/src/x.rs", src);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().all(|h| h.rule == "S1"));
        assert!(hits[0].message.contains("shared mutable state `Barrier`"), "{hits:?}");
        assert!(run("crates/bench/src/x.rs", src).is_empty(), "scope stays simnet");
    }

    #[test]
    fn s2_flags_unseeded_rng_everywhere_but_the_rng_crate() {
        let src = "fn f() { let r = thread_rng(); let h = RandomState::new(); }\n";
        assert_eq!(run("crates/bench/src/x.rs", src).len(), 2);
        assert!(run("crates/rng/src/x.rs", src).is_empty());
    }

    #[test]
    fn s3_direct_sink_bindings() {
        let src = "fn f() { let t_ns = Instant::now().elapsed().as_nanos() as u64; }\n";
        let hits = run("crates/simnet/src/x.rs", src);
        assert!(
            hits.iter().any(|f| f.rule == "S3" && f.message.contains("wall-clock")),
            "{hits:?}"
        );
    }

    #[test]
    fn s3_pointer_derived_seq_through_indirection() {
        let src = "fn f(pkt: &P) {\n    let addr = &raw const *pkt as *const P as usize;\n    let seq = addr as u64;\n}\n";
        let hits = run("crates/simnet/src/x.rs", src);
        assert!(
            hits.iter().any(|f| f.rule == "S3" && f.message.contains("pointer/address")),
            "{hits:?}"
        );
    }

    #[test]
    fn s3_hash_iteration_into_sink_call() {
        let src = "fn f(m: &HashMap<u64, u64>, w: &mut W) {\n    for (k, v) in m.iter() {\n        w.push(*k, *v, 0);\n    }\n}\n";
        let hits = run("crates/simnet/src/x.rs", src);
        assert!(hits.iter().any(|f| f.rule == "S3" && f.message.contains("push")), "{hits:?}");
    }

    #[test]
    fn s3_untainted_code_is_silent() {
        let src = "fn f(core: &mut C) {\n    let t_ns = core.now + delay;\n    let seq = core.mint_seq();\n    core.events.push(t_ns, seq, tag);\n}\n";
        assert!(run("crates/simnet/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_regions_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let t_ns = Instant::now().as_nanos(); let m: HashMap<u8,u8> = HashMap::new(); }\n}\n";
        assert!(run("crates/simnet/src/x.rs", src).is_empty());
    }
}
