//! N2 (DESIGN.md §8): a raw `f64` must not cross the public
//! `apples-metrics` API unnoticed. Values carry their units in
//! `Quantity`, so a public fn whose signature has a raw `f64` and
//! returns neither `Quantity` nor `Self` bypasses the unit system. Each
//! such fn is listed below with the reason it may. No stock lint states
//! this rule, so this test is where it lives.

use std::path::Path;

/// `(file, fn, reason)` for every public fn in `crates/metrics/src`
/// that may take or return a raw `f64`.
const SANCTIONED: &[(&str, &str, &str)] = &[
    (
        "cost.rs",
        "approx_eq",
        "rel_tol is a dimensionless tolerance, not a measurement",
    ),
    (
        "direction.rs",
        "compare",
        "compares already-validated same-unit raw values on behalf of Quantity",
    ),
    (
        "direction.rs",
        "is_better",
        "compares already-validated same-unit raw values on behalf of Quantity",
    ),
    (
        "direction.rs",
        "is_at_least_as_good",
        "compares already-validated same-unit raw values on behalf of Quantity",
    ),
    (
        "fairness.rs",
        "jains_index",
        "Jain's index is defined over raw same-unit allocations and returns a dimensionless ratio in (0, 1]",
    ),
    (
        "perf.rs",
        "approx_eq",
        "rel_tol is a dimensionless tolerance, not a measurement",
    ),
    (
        "quantity.rs",
        "value",
        "the single sanctioned exit from the unit system; callers opt out explicitly by name",
    ),
    (
        "quantity.rs",
        "ratio_to",
        "a ratio of same-unit quantities is dimensionless by construction; f64 is its honest type",
    ),
    (
        "quantity.rs",
        "approx_eq",
        "rel_tol is a dimensionless tolerance, not a measurement; wrapping it in a unit would be noise",
    ),
];

/// True when `ident` appears in `text` as a whole identifier.
fn has_token(text: &str, ident: &str) -> bool {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_')).any(|t| t == ident)
}

/// The public fns in the non-test part of `src` whose signature has a
/// raw `f64` and returns neither `Quantity` nor `Self`, in source order.
/// Test code starts at the first `#[cfg(test)]`; comments are skipped.
fn raw_f64_fns(src: &str) -> Vec<String> {
    let code = src.split("#[cfg(test)]").next().unwrap_or_default();
    let lines: Vec<&str> =
        code.lines().map(|l| l.split("//").next().unwrap_or_default().trim()).collect();
    let mut found = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(rest) =
            line.strip_prefix("pub fn ").or_else(|| line.strip_prefix("pub const fn "))
        else {
            continue;
        };
        // The signature runs up to its body brace or its semicolon.
        let mut sig = String::new();
        for l in &lines[i..] {
            let end = l.find(['{', ';']);
            sig.push_str(&l[..end.unwrap_or(l.len())]);
            sig.push(' ');
            if end.is_some() {
                break;
            }
        }
        let returns_newtype = sig
            .split_once("->")
            .is_some_and(|(_, ret)| has_token(ret, "Quantity") || has_token(ret, "Self"));
        if has_token(&sig, "f64") && !returns_newtype {
            let name = rest.split(['(', '<']).next().unwrap_or_default();
            found.push(name.to_owned());
        }
    }
    found
}

#[test]
fn raw_f64_signatures_are_listed_with_a_reason() {
    let src_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut found = Vec::new();
    for entry in std::fs::read_dir(&src_dir).expect("crates/metrics/src is readable") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let file = path.file_name().expect("a file name").to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&path).expect("source is readable");
            found.extend(raw_f64_fns(&src).into_iter().map(|name| (file.clone(), name)));
        }
    }
    let listed =
        |file: &str, name: &str| SANCTIONED.iter().any(|&(f, n, _)| f == file && n == name);
    let unlisted: Vec<_> = found.iter().filter(|(f, n)| !listed(f, n)).collect();
    assert!(
        unlisted.is_empty(),
        "raw f64 in a public apples-metrics signature: route it through Quantity, \
         or list it here with its reason: {unlisted:?}"
    );
    let stale: Vec<_> = SANCTIONED
        .iter()
        .filter(|&&(f, n, _)| !found.iter().any(|(ff, nn)| ff == f && nn == n))
        .collect();
    assert!(
        stale.is_empty(),
        "listed fns with no raw f64 left; drop them from the list: {stale:?}"
    );
    assert!(SANCTIONED.iter().all(|&(_, _, reason)| !reason.is_empty()));
}

#[test]
fn the_scan_flags_bypasses_and_spares_unit_constructors() {
    let pair = "pub struct Quantity(f64);\n\n\
                pub fn grams(v: f64) -> Quantity {\n    Quantity(v)\n}\n\n\
                pub fn leak(q: &Quantity) -> f64 {\n    q.0\n}\n";
    assert_eq!(raw_f64_fns(pair), ["leak"]);
    let multi_line =
        "pub fn combine(\n    a: Quantity,\n    factor: f64,\n) -> Option<Ordering> {\n";
    assert_eq!(raw_f64_fns(multi_line), ["combine"]);
    let out_of_scope = "/// pub fn doc(x: f64) -> f64\nfn private(x: f64) -> f64 {\n    x\n}\n\
                        #[cfg(test)]\nmod tests {\n    pub fn helper(x: f64) -> f64 {\n        x\n    }\n}\n";
    assert!(raw_f64_fns(out_of_scope).is_empty());
}
