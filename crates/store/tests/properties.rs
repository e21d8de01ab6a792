//! Store property battery (seeded, deterministic):
//!
//! (a) same key → byte-identical artifact, every time;
//! (b) any single provenance-component change reads as stale, with
//!     the diff naming exactly that component;
//! (c) GC never deletes a reachable artifact — random entry sets,
//!     random kept subsets.

use apples_core::digest::CacheKey;
use apples_rng::Rng;
use apples_store::{Lookup, Store};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("apples-store-prop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn random_payload(rng: &mut Rng) -> Vec<u8> {
    let len = rng.range_usize(0, 300);
    (0..len).map(|_| rng.range_u8_inclusive(0, 255)).collect()
}

fn random_key(rng: &mut Rng) -> CacheKey {
    let mut key = CacheKey::new();
    for i in 0..rng.range_usize(1, 5) {
        key.push(format!("c{i}"), format!("{:x}", rng.next_u64()));
    }
    key
}

/// (a) Same key → byte-identical artifact; republishing under the same
/// key, or adding entries under other keys, never changes what the
/// original key serves.
#[test]
fn same_key_serves_byte_identical_payloads() {
    let store = Store::open(temp_root("identity"));
    let mut rng = Rng::seed_from_u64(0x1DE7);
    for round in 0..50 {
        let key = random_key(&mut rng);
        let payload = random_payload(&mut rng);
        let name = format!("exp{round}");
        store.publish("run", &name, &key, &payload).expect("publish");
        for _ in 0..3 {
            let (decision, got) = store.lookup("run", &name, &key);
            assert_eq!(decision, Lookup::Hit, "round {round}");
            assert_eq!(got.as_deref(), Some(payload.as_slice()), "round {round}");
        }
        // Republish the same bytes (a concurrent xp would) — still identical.
        store.publish("run", &name, &key, &payload).expect("republish");
        let (_, got) = store.lookup("run", &name, &key);
        assert_eq!(got.as_deref(), Some(payload.as_slice()));
        // A different key for the same name never shadows the original.
        let other = random_key(&mut rng).with("extra", format!("{round}"));
        store.publish("run", &name, &other, &random_payload(&mut rng)).expect("publish other");
        let (decision, got) = store.lookup("run", &name, &key);
        assert_eq!(decision, Lookup::Hit, "round {round}: other key shadowed the entry");
        assert_eq!(got.as_deref(), Some(payload.as_slice()));
    }
    let _ = std::fs::remove_dir_all(store.root());
}

/// A random entry set: `(kind, name, key)` triples with distinct
/// `(kind, name)` pairs, the shape `xp all` publishes (one key per
/// experiment, shared by its run, report and figures).
fn random_entries(rng: &mut Rng, count: usize) -> Vec<(String, String, CacheKey)> {
    const KINDS: [&str; 3] = ["run", "report", "figure"];
    (0..count)
        .map(|i| {
            let kind = KINDS[rng.range_usize(0, KINDS.len())];
            (kind.to_owned(), format!("exp{i}"), random_key(rng))
        })
        .collect()
}

/// (c) GC never deletes a reachable artifact: publish a random entry
/// set, keep a random subset, gc, and check every kept entry survived
/// and every other entry (plus tmp litter) is gone.
#[test]
fn gc_never_deletes_a_reachable_artifact() {
    let mut rng = Rng::seed_from_u64(0x6C6C);
    for round in 0..25 {
        let store = Store::open(temp_root(&format!("gc-{round}")));
        let count = rng.range_usize(5, 20);
        let entries = random_entries(&mut rng, count);
        for (kind, name, key) in &entries {
            store.publish(kind, name, key, &random_payload(&mut rng)).expect("publish");
        }
        // Orphans: entries under keys nothing references anymore.
        let orphans = rng.range_usize(1, 5);
        for i in 0..orphans {
            store
                .publish("run", &format!("orphan{i}"), &random_key(&mut rng), b"old")
                .expect("publish orphan");
        }
        std::fs::write(store.root().join("run").join("x@0.tmp.1.2"), b"litter").expect("litter");

        let keep: Vec<bool> = entries.iter().map(|_| rng.range_usize(0, 2) == 1).collect();
        let expected: BTreeSet<String> = entries
            .iter()
            .zip(&keep)
            .filter(|(_, &kept)| kept)
            .map(|((kind, name, key), _)| format!("{kind}/{name}@{}", key.digest()))
            .collect();
        let report = store.gc(&expected).expect("gc");

        assert_eq!(report.kept, expected.len(), "round {round}");
        let dropped = entries.len() - expected.len() + orphans + 1;
        assert_eq!(report.removed.len(), dropped, "round {round}: {:?}", report.removed);
        for ((kind, name, key), &kept) in entries.iter().zip(&keep) {
            let (decision, _) = store.lookup(kind, name, key);
            let want = if kept { Lookup::Hit } else { Lookup::Miss };
            assert_eq!(decision, want, "round {round}: {kind}/{name} (kept: {kept})");
        }
        assert!(!store.root().join("run").join("x@0.tmp.1.2").exists(), "tmp litter survived");
        let _ = std::fs::remove_dir_all(store.root());
    }
}

/// (b) at the store level too: each provenance component flip lands as
/// a stale entry whose diff names exactly the flipped component.
#[test]
fn every_provenance_component_flip_is_detected_by_name() {
    let store = Store::open(temp_root("components"));
    let base = CacheKey::new()
        .with("seed", "1")
        .with("fault", "none")
        .with("config", "abcd")
        .with("toolchain", "unrecorded")
        .with("rev", "unrecorded");
    store.publish("run", "exp", &base, b"artifact").expect("publish");
    for (component, flipped) in [
        ("seed", "2"),
        ("fault", "f00d"),
        ("config", "dcba"),
        ("toolchain", "rustc 1.99"),
        ("rev", "deadbeef"),
    ] {
        let changed = base.clone().with(component, flipped);
        let (decision, payload) = store.lookup("run", "exp", &changed);
        assert!(payload.is_none());
        match decision {
            Lookup::Stale(diff) => {
                assert_eq!(diff.len(), 1, "{component}: {diff:?}");
                assert_eq!(diff[0].name, component);
                assert_eq!(diff[0].new.as_deref(), Some(flipped));
            }
            other => panic!("{component}: expected stale, got {other:?}"),
        }
        // The unflipped key still hits.
        assert_eq!(store.lookup("run", "exp", &base).0, Lookup::Hit);
    }
    let _ = std::fs::remove_dir_all(store.root());
}
