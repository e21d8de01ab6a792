//! Store property battery (seeded, deterministic):
//!
//! (a) same key → byte-identical artifact, every time;
//! (b) any single digest-component change re-addresses exactly the
//!     dependent DAG subtree and nothing else;
//! (c) GC never deletes a reachable artifact — random DAGs, random
//!     kept roots, reachability checked by ancestor closure.

use apples_core::digest::CacheKey;
use apples_rng::Rng;
use apples_store::{Dag, Lookup, NodeId, Store};
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

/// A random layered DAG: every non-root node picks 1–3 random earlier
/// nodes as parents. Returns the dag and per-node component names so a
/// test can flip a single component.
fn random_dag(rng: &mut Rng, nodes: usize) -> Dag {
    let mut dag = Dag::new();
    for i in 0..nodes {
        let parents: Vec<NodeId> = if i == 0 {
            Vec::new()
        } else {
            let count = rng.range_usize(1, i.min(3) + 1);
            let mut picked = BTreeSet::new();
            for _ in 0..count {
                picked.insert(rng.range_usize(0, i));
            }
            picked.into_iter().map(NodeId).collect()
        };
        let own = CacheKey::new()
            .with("seed", format!("{:x}", rng.next_u64()))
            .with("config", format!("{:x}", rng.next_u64()));
        dag.add("run", format!("n{i}"), own, &parents).expect("add");
    }
    dag
}

/// (b) Flipping one component of one node re-addresses exactly that
/// node and its transitive descendants — nothing else.
#[test]
fn single_component_change_re_addresses_exactly_the_subtree() {
    let mut rng = Rng::seed_from_u64(0x5AB7);
    for round in 0..40 {
        let nodes = rng.range_usize(5, 25);
        let dag = random_dag(&mut rng, nodes);
        let before = dag.effective_keys();

        // Rebuild the same DAG with exactly one component of one node
        // flipped (DAGs are append-only, so "mutate" = reconstruct).
        let victim = rng.range_usize(0, nodes);
        let mut changed = Dag::new();
        for (i, node) in dag.nodes().iter().enumerate() {
            let own = if i == victim {
                node.own.clone().with("config", "flipped")
            } else {
                node.own.clone()
            };
            changed.add(&node.kind, &node.name, own, &node.parents).expect("rebuild");
        }
        let after = changed.effective_keys();

        let expected_changed: BTreeSet<usize> =
            std::iter::once(victim).chain(dag.descendants(NodeId(victim))).collect();
        for i in 0..nodes {
            let moved = before[i].digest() != after[i].digest();
            assert_eq!(
                moved,
                expected_changed.contains(&i),
                "round {round}: node {i} (victim {victim}) moved={moved}"
            );
        }
    }
}

/// Ancestor closure of a set of roots (the artifacts a partial rebuild
/// of those roots still needs).
fn ancestors_of(dag: &Dag, roots: &BTreeSet<usize>) -> BTreeSet<usize> {
    let mut keep = roots.clone();
    for i in (0..dag.len()).rev() {
        if keep.contains(&i) {
            for p in &dag.nodes()[i].parents {
                keep.insert(p.0);
            }
        }
    }
    keep
}

/// (c) GC never deletes a reachable artifact: populate a store from a
/// random DAG, keep the ancestor closure of random roots, gc, and
/// check every kept entry survived and every other entry (plus tmp
/// litter) is gone.
#[test]
fn gc_never_deletes_a_reachable_artifact() {
    let mut rng = Rng::seed_from_u64(0x6C6C);
    for round in 0..25 {
        let store = Store::open(temp_root(&format!("gc-{round}")));
        let nodes = rng.range_usize(5, 20);
        let dag = random_dag(&mut rng, nodes);
        let effective = dag.effective_keys();
        let names = dag.entry_names(&effective);
        for (node, key) in dag.nodes().iter().zip(&effective) {
            store.publish(&node.kind, &node.name, key, &random_payload(&mut rng)).expect("publish");
        }
        // Orphans: entries under keys nothing references anymore.
        for i in 0..rng.range_usize(1, 5) {
            store
                .publish("run", &format!("orphan{i}"), &random_key(&mut rng), b"old")
                .expect("publish orphan");
        }
        std::fs::write(store.root().join("run").join("x@0.tmp.1.2"), b"litter").expect("litter");

        let mut roots = BTreeSet::new();
        for _ in 0..rng.range_usize(1, 4) {
            roots.insert(rng.range_usize(0, nodes));
        }
        let keep = ancestors_of(&dag, &roots);
        let expected: BTreeSet<String> = keep.iter().map(|&i| names[i].clone()).collect();
        let report = store.gc(&expected).expect("gc");

        assert_eq!(report.kept, keep.len(), "round {round}");
        for &i in &keep {
            let node = &dag.nodes()[i];
            let (decision, _) = store.lookup(&node.kind, &node.name, &effective[i]);
            assert_eq!(decision, Lookup::Hit, "round {round}: reachable {} deleted", names[i]);
        }
        for i in 0..nodes {
            if !keep.contains(&i) {
                let node = &dag.nodes()[i];
                let (decision, _) = store.lookup(&node.kind, &node.name, &effective[i]);
                assert_eq!(decision, Lookup::Miss, "round {round}: orphan {} survived", names[i]);
            }
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
