//! The on-disk store: lookup, publish, GC.
//!
//! Layout: `<root>/<kind>/<name>@<16-hex-digest>` where the digest is
//! the FNV-1a digest of the entry's cache key. Publishes go
//! through a tmp file in the same directory plus an atomic rename, so
//! two concurrent `xp` invocations racing on the same key leave one
//! complete entry, never an interleaving. A hit requires the stored
//! footer key to be component-for-component equal to the expected key —
//! the cached artifact is provably stamped with the provenance it is
//! served under, not assumed to be.

use crate::entry::{decode, encode, Decoded};
use apples_core::digest::{CacheKey, KeyDiff};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Outcome of a store lookup for one `(kind, name, key)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// Entry present under the expected key; payload is byte-valid.
    Hit,
    /// Entries exist for this `(kind, name)` but under different keys;
    /// the diff names the components that changed. The comparison
    /// point is the entry with the lexicographically last digest:
    /// deterministic, but not necessarily the newest.
    Stale(Vec<KeyDiff>),
    /// No entry for this `(kind, name)` at all.
    Miss,
    /// An entry file exists at the expected address but fails footer
    /// validation — a torn write. Always re-run, never serve.
    Torn(String),
}

impl Lookup {
    /// Short lowercase tag used by `--explain` and the CI greps.
    pub fn tag(&self) -> &'static str {
        match self {
            Lookup::Hit => "hit",
            Lookup::Stale(_) => "stale",
            Lookup::Miss => "miss",
            Lookup::Torn(_) => "torn",
        }
    }
}

/// What `gc` did.
#[derive(Debug, Clone, Default)]
pub struct GcReport {
    /// Entries that matched the expected set and were kept.
    pub kept: usize,
    /// Store-relative paths removed (orphaned entries + tmp litter).
    pub removed: Vec<String>,
}

/// Handle on a store root directory.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

/// Distinguishes this process's publishes racing with each other.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl Store {
    /// Opens a store at `root`. No filesystem access happens until the
    /// first lookup or publish; directories are created lazily.
    pub fn open(root: impl Into<PathBuf>) -> Store {
        Store { root: root.into() }
    }

    /// The default root, `results/store` relative to the working
    /// directory (`xp --store-dir` picks another).
    pub fn default_root() -> PathBuf {
        PathBuf::from("results").join("store")
    }

    /// The store root path.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn kind_dir(&self, kind: &str) -> PathBuf {
        self.root.join(kind)
    }

    /// Absolute path of the entry for `(kind, name)` under `digest`.
    pub fn entry_path(&self, kind: &str, name: &str, digest: &str) -> PathBuf {
        self.kind_dir(kind).join(format!("{name}@{digest}"))
    }

    /// Splits an entry file name into `(name, digest)`; `None` for
    /// files that are not entries (tmp litter, READMEs).
    fn split_entry(file_name: &str) -> Option<(&str, &str)> {
        let (name, digest) = file_name.rsplit_once('@')?;
        (digest.len() == 16 && digest.chars().all(|c| c.is_ascii_hexdigit()))
            .then_some((name, digest))
    }

    /// Entries recorded for `(kind, name)`, as `(digest, path)` pairs
    /// in ascending digest order.
    fn entries_for(&self, kind: &str, name: &str) -> Vec<(String, PathBuf)> {
        let Ok(dir) = std::fs::read_dir(self.kind_dir(kind)) else {
            return Vec::new();
        };
        let mut out: Vec<(String, PathBuf)> = dir
            .flatten()
            .filter_map(|e| {
                let file_name = e.file_name().to_string_lossy().into_owned();
                let (n, d) = Store::split_entry(&file_name)?;
                (n == name).then(|| (d.to_owned(), e.path()))
            })
            .collect();
        out.sort();
        out
    }

    /// Looks up `(kind, name)` under `key`. Returns the decision plus
    /// the payload when (and only when) the decision is a hit.
    pub fn lookup(&self, kind: &str, name: &str, key: &CacheKey) -> (Lookup, Option<Vec<u8>>) {
        let expected = key.digest();
        let path = self.entry_path(kind, name, &expected);
        match std::fs::read(&path) {
            Ok(bytes) => match decode(&bytes) {
                Decoded::Valid { payload, key: stored } => {
                    if stored.canonical() == key.canonical() {
                        (Lookup::Hit, Some(payload))
                    } else {
                        // Digest collision or a tampered footer: the
                        // address matched but the recorded key does
                        // not. Never serve it.
                        (Lookup::Torn("footer key does not match its address".to_owned()), None)
                    }
                }
                Decoded::Torn(why) => (Lookup::Torn(why), None),
            },
            Err(_) => {
                // No entry at the expected address. Older entries for
                // the same (kind, name) make this *stale* and give us a
                // concrete key to diff against; pick the
                // lexicographically last digest so the choice is
                // deterministic.
                let others = self.entries_for(kind, name);
                let Some((_, other_path)) = others.last() else {
                    return (Lookup::Miss, None);
                };
                match std::fs::read(other_path).ok().map(|b| decode(&b)) {
                    Some(Decoded::Valid { key: stored, .. }) => {
                        (Lookup::Stale(key.diff(&stored)), None)
                    }
                    _ => (Lookup::Miss, None),
                }
            }
        }
    }

    /// Publishes `payload` for `(kind, name)` under `key`: encode with
    /// footer, write to a tmp file in the same directory, then rename
    /// into place atomically. Returns the final entry path.
    pub fn publish(
        &self,
        kind: &str,
        name: &str,
        key: &CacheKey,
        payload: &[u8],
    ) -> io::Result<PathBuf> {
        let dir = self.kind_dir(kind);
        std::fs::create_dir_all(&dir)?;
        let digest = key.digest();
        let final_path = self.entry_path(kind, name, &digest);
        let tmp = dir.join(format!(
            "{name}@{digest}.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, encode(payload, key))?;
        match std::fs::rename(&tmp, &final_path) {
            Ok(()) => Ok(final_path),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Garbage collection: removes every entry file not in `expected`
    /// (store-relative `kind/name@digest` names), plus any abandoned
    /// tmp files. Files that are not entries at all (a README, notes)
    /// are never touched — GC can only delete what publish can create.
    pub fn gc(&self, expected: &BTreeSet<String>) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        for (kind, file_name, path) in self.walk_entries()? {
            let relative = format!("{kind}/{file_name}");
            let is_entry = Store::split_entry(&file_name).is_some();
            let is_tmp_litter = file_name.contains(".tmp.");
            if is_entry && expected.contains(&relative) {
                report.kept += 1;
            } else if is_entry || is_tmp_litter {
                std::fs::remove_file(&path)?;
                report.removed.push(relative);
            }
        }
        report.removed.sort();
        Ok(report)
    }

    /// All files under `<root>/<kind>/` as `(kind, file_name, path)`.
    fn walk_entries(&self) -> io::Result<Vec<(String, String, PathBuf)>> {
        let mut out = Vec::new();
        let root = match std::fs::read_dir(&self.root) {
            Ok(dir) => dir,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for kind_entry in root.flatten() {
            if !kind_entry.path().is_dir() {
                continue;
            }
            let kind = kind_entry.file_name().to_string_lossy().into_owned();
            for file in std::fs::read_dir(kind_entry.path())?.flatten() {
                if file.path().is_file() {
                    out.push((
                        kind.clone(),
                        file.file_name().to_string_lossy().into_owned(),
                        file.path(),
                    ));
                }
            }
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> Store {
        let root =
            std::env::temp_dir().join(format!("apples-store-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Store::open(root)
    }

    fn key(config: &str) -> CacheKey {
        CacheKey::new().with("seed", "1").with("config", config)
    }

    #[test]
    fn miss_then_publish_then_hit_round_trip() {
        let store = temp_store("roundtrip");
        let k = key("abcd");
        assert_eq!(store.lookup("run", "fig1", &k).0, Lookup::Miss);
        store.publish("run", "fig1", &k, b"payload").expect("publish");
        let (decision, payload) = store.lookup("run", "fig1", &k);
        assert_eq!(decision, Lookup::Hit);
        assert_eq!(payload.as_deref(), Some(&b"payload"[..]));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn changed_key_reads_as_stale_with_component_diff() {
        let store = temp_store("stale");
        store.publish("run", "fig1", &key("old"), b"payload").expect("publish");
        let (decision, payload) = store.lookup("run", "fig1", &key("new"));
        assert!(payload.is_none());
        match decision {
            Lookup::Stale(diff) => {
                assert_eq!(diff.len(), 1);
                assert_eq!(diff[0].name, "config");
                assert_eq!(diff[0].old.as_deref(), Some("old"));
                assert_eq!(diff[0].new.as_deref(), Some("new"));
            }
            other => panic!("expected stale, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn torn_entry_is_never_served() {
        let store = temp_store("torn");
        let k = key("abcd");
        let path = store.publish("run", "fig1", &k, b"a torn tale").expect("publish");
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        let (decision, payload) = store.lookup("run", "fig1", &k);
        assert!(matches!(decision, Lookup::Torn(_)), "got {decision:?}");
        assert!(payload.is_none());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_keeps_expected_removes_orphans_and_spares_non_entries() {
        let store = temp_store("gc");
        let k = key("abcd");
        let kept_path = store.publish("run", "fig1", &k, b"keep me").expect("publish");
        store.publish("run", "orphan", &k, b"drop me").expect("publish");
        std::fs::write(store.root().join("run").join("x@123.tmp.9.9"), b"litter")
            .expect("tmp litter");
        std::fs::write(store.root().join("run").join("README.md"), b"docs").expect("readme");
        let expected: BTreeSet<String> = [format!("run/fig1@{}", k.digest())].into_iter().collect();
        let report = store.gc(&expected).expect("gc");
        assert_eq!(report.kept, 1);
        assert_eq!(report.removed.len(), 2, "{:?}", report.removed);
        assert!(kept_path.exists());
        assert!(store.root().join("run").join("README.md").exists());
        let _ = std::fs::remove_dir_all(store.root());
    }
}
