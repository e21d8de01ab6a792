//! Crash and concurrency battery: a writer killed mid-artifact must
//! read back as a miss (torn), never a hit; concurrent publishes on
//! the same key must leave one complete entry, never an interleaving.

use apples_core::digest::CacheKey;
use apples_rng::Rng;
use apples_store::{Lookup, Store};
use std::path::PathBuf;

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("apples-store-torn-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn key() -> CacheKey {
    CacheKey::new().with("seed", "1").with("config", "abcd")
}

/// Kill-the-writer simulation: truncate the entry at random offsets
/// under a seeded loop. Every truncation must read as torn (or, for a
/// zero-length remnant, at worst a detectable non-hit) and re-running
/// the producer must restore a clean hit.
#[test]
fn truncation_at_any_offset_is_never_served() {
    let store = Store::open(temp_root("truncate"));
    let mut rng = Rng::seed_from_u64(0x70A2);
    for round in 0..60 {
        let payload: Vec<u8> =
            (0..rng.range_usize(1, 400)).map(|_| rng.range_u8_inclusive(0, 255)).collect();
        let path = store.publish("run", "exp", &key(), &payload).expect("publish");
        let full = std::fs::read(&path).expect("read back");
        let cut = rng.range_usize(0, full.len());
        std::fs::write(&path, &full[..cut]).expect("truncate");

        let (decision, served) = store.lookup("run", "exp", &key());
        assert!(served.is_none(), "round {round}: served {} bytes from a torn entry", cut);
        assert!(
            matches!(decision, Lookup::Torn(_)),
            "round {round}: cut at {cut}/{} read as {decision:?}",
            full.len()
        );

        // The producer re-runs (a store re-publish) and the entry heals.
        store.publish("run", "exp", &key(), &payload).expect("republish");
        let (decision, served) = store.lookup("run", "exp", &key());
        assert_eq!(decision, Lookup::Hit, "round {round}");
        assert_eq!(served.as_deref(), Some(payload.as_slice()), "round {round}");
    }
    let _ = std::fs::remove_dir_all(store.root());
}

/// Single corrupted byte anywhere in the file: never a hit.
#[test]
fn bit_corruption_is_never_served() {
    let store = Store::open(temp_root("bitflip"));
    let mut rng = Rng::seed_from_u64(0xB17F);
    let payload = b"forty-two bytes of deterministic artifact".to_vec();
    for round in 0..40 {
        let path = store.publish("run", "exp", &key(), &payload).expect("publish");
        let mut bytes = std::fs::read(&path).expect("read back");
        let at = rng.range_usize(0, bytes.len());
        bytes[at] ^= 1 << rng.range_u8_inclusive(0, 7);
        std::fs::write(&path, &bytes).expect("corrupt");
        let (decision, served) = store.lookup("run", "exp", &key());
        assert!(served.is_none(), "round {round}: served a corrupted entry (byte {at})");
        assert!(
            matches!(decision, Lookup::Torn(_)),
            "round {round}: flip at {at} read as {decision:?}"
        );
    }
    let _ = std::fs::remove_dir_all(store.root());
}

/// Two concurrent `xp` invocations racing the same key (the real suite
/// publishes identical bytes; the stress variant races different bytes
/// to prove renames cannot interleave): after every race the entry is
/// complete and equals exactly one contender's payload.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "races two store writers on purpose, as two concurrent xp processes would; no engine runs here"
)]
fn concurrent_publishes_on_one_key_never_corrupt_the_entry() {
    let store = Store::open(temp_root("race"));
    let a = vec![b'a'; 4096];
    let b = vec![b'b'; 4096];
    for round in 0..30 {
        let (store_a, store_b) = (store.clone(), store.clone());
        let (pa, pb) = (a.clone(), b.clone());
        std::thread::scope(|scope| {
            let ta = scope.spawn(move || store_a.publish("run", "exp", &key(), &pa));
            let tb = scope.spawn(move || store_b.publish("run", "exp", &key(), &pb));
            ta.join().expect("writer a").expect("publish a");
            tb.join().expect("writer b").expect("publish b");
        });
        let (decision, served) = store.lookup("run", "exp", &key());
        assert_eq!(decision, Lookup::Hit, "round {round}");
        let served = served.expect("payload");
        assert!(
            served == a || served == b,
            "round {round}: entry is an interleaving ({} bytes)",
            served.len()
        );
    }
    // The suite's real race: same bytes from both writers.
    let payload = b"identical artifact".to_vec();
    for _ in 0..30 {
        let (store_a, store_b) = (store.clone(), store.clone());
        let (pa, pb) = (payload.clone(), payload.clone());
        std::thread::scope(|scope| {
            scope.spawn(move || store_a.publish("run", "exp2", &key(), &pa));
            scope.spawn(move || store_b.publish("run", "exp2", &key(), &pb));
        });
        let (decision, served) = store.lookup("run", "exp2", &key());
        assert_eq!(decision, Lookup::Hit);
        assert_eq!(served.as_deref(), Some(payload.as_slice()));
    }
    let _ = std::fs::remove_dir_all(store.root());
}
