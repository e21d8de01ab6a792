//! Provenance stamping: the header that makes an artifact replayable.
//!
//! Every emitted report and JSON artifact carries a `provenance` block:
//! the seed, fault-spec digest, and config digest fully determine the
//! simulated numbers (replay those three and the artifact
//! reproduces bit-for-bit); toolchain and git revision record *where*
//! it was produced. The environment fields come from `APPLES_TOOLCHAIN`
//! / `APPLES_GIT_REV` — the sanctioned env path, set by CI — and fall
//! back to the stable string `unrecorded` so goldens regenerated on a
//! bare machine stay byte-identical.

use apples_core::digest::CacheKey;
use apples_core::json::Json;

// The hash moved into `apples-core::digest` when the experiment store
// made digests a typed value; re-exported here so existing provenance
// call sites keep one import path.
pub use apples_core::digest::{fnv1a, fnv1a_hex};

/// The provenance stamp attached to reports and trace files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Workload seed the run derives from.
    pub seed: u64,
    /// Digest of the fault spec (`none` when faults are off).
    pub fault_digest: String,
    /// Digest of the deployment/workload configuration.
    pub config_digest: String,
    /// Toolchain recorded by the environment (`unrecorded` fallback).
    pub toolchain: String,
    /// Git revision recorded by the environment (`unrecorded` fallback).
    pub git_rev: String,
}

fn env_or_unrecorded(key: &str) -> String {
    std::env::var(key).ok().filter(|v| !v.is_empty()).unwrap_or_else(|| "unrecorded".to_owned())
}

impl Provenance {
    /// Builds a stamp from the replay-determining fields; toolchain and
    /// git revision are read from the environment.
    pub fn new(
        seed: u64,
        fault_digest: impl Into<String>,
        config_digest: impl Into<String>,
    ) -> Self {
        Provenance {
            seed,
            fault_digest: fault_digest.into(),
            config_digest: config_digest.into(),
            toolchain: env_or_unrecorded("APPLES_TOOLCHAIN"),
            git_rev: env_or_unrecorded("APPLES_GIT_REV"),
        }
    }

    /// Deterministic JSON block (insertion-ordered keys).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("seed", self.seed)
            .field("fault_digest", self.fault_digest.as_str())
            .field("config_digest", self.config_digest.as_str())
            .field("toolchain", self.toolchain.as_str())
            .field("git_rev", self.git_rev.as_str())
    }

    /// The provenance fields as a typed store cache key, in stamp
    /// order. This is the bridge between "artifact is stamped with X"
    /// and "artifact is cached under X": an entry keyed on this value
    /// is provably keyed on the exact provenance block it carries.
    pub fn cache_key(&self) -> CacheKey {
        CacheKey::new()
            .with("seed", self.seed.to_string())
            .with("fault", self.fault_digest.as_str())
            .with("config", self.config_digest.as_str())
            .with("toolchain", self.toolchain.as_str())
            .with("rev", self.git_rev.as_str())
    }

    /// One-line rendering for markdown/plain-text reports.
    pub fn render_compact(&self) -> String {
        format!(
            "seed={} fault={} config={} toolchain={} rev={}",
            self.seed, self.fault_digest, self.config_digest, self.toolchain, self.git_rev
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors_hold() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_hex(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn digest_is_16_lower_hex() {
        let d = fnv1a_hex(b"anything at all");
        assert_eq!(d.len(), 16);
        assert!(d.chars().all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
    }

    #[test]
    fn stamp_renders_every_field() {
        let p = Provenance::new(42, "none", "abcd");
        let line = p.render_compact();
        for part in ["seed=42", "fault=none", "config=abcd"] {
            assert!(line.contains(part), "{line}");
        }
        let json = p.to_json().render();
        for key in
            ["\"seed\"", "\"fault_digest\"", "\"config_digest\"", "\"toolchain\"", "\"git_rev\""]
        {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn cache_key_mirrors_the_stamp_fields() {
        let p = Provenance::new(42, "none", "abcd");
        let key = p.cache_key();
        assert_eq!(key.component("seed"), Some("42"));
        assert_eq!(key.component("fault"), Some("none"));
        assert_eq!(key.component("config"), Some("abcd"));
        assert_eq!(key.component("toolchain"), Some(p.toolchain.as_str()));
        assert_eq!(key.component("rev"), Some(p.git_rev.as_str()));
        // Any replay-determining field change must move the digest.
        let other = Provenance::new(43, "none", "abcd");
        assert_ne!(key.digest(), other.cache_key().digest());
    }

    #[test]
    fn env_fallback_is_the_stable_string() {
        let p = Provenance::new(1, "none", "00");
        // Only assert the fallback when the variables are genuinely
        // unset (the default everywhere goldens are regenerated).
        if std::env::var("APPLES_TOOLCHAIN").is_err() {
            assert_eq!(p.toolchain, "unrecorded");
        }
        if std::env::var("APPLES_GIT_REV").is_err() {
            assert_eq!(p.git_rev, "unrecorded");
        }
        assert!(!p.toolchain.is_empty() && !p.git_rev.is_empty());
    }
}
