//! Golden end-to-end test: every experiment's markdown report is pinned
//! byte-for-byte against a fixture in `tests/golden/`.
//!
//! The whole workspace is deterministic by construction — seeded RNG,
//! ordered maps, schedule-independent pools, replayable fault plans —
//! so the reports themselves can be golden-tested. Any behavior change
//! anywhere in the stack (engine timing, NF costs, power model, fault
//! derivation, report formatting) shows up here as a byte diff naming
//! the experiment.
//!
//! To regenerate after an intentional change:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test --test golden_reports
//! git diff tests/golden/   # review every changed conclusion
//! ```

use apples_bench::experiments::{run, ALL_IDS};
use apples_bench::Pool;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

#[test]
fn every_experiment_report_matches_its_golden_fixture() {
    let regen = std::env::var_os("GOLDEN_REGEN").is_some();
    let dir = golden_dir();
    if regen {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
    }

    // Render everything on the pool (the reports are schedule-
    // independent; the determinism suite pins that separately).
    let rendered: Vec<(&str, String)> = Pool::new().map(ALL_IDS.to_vec(), |id| {
        (id, run(id, Pool::new()).expect("known id").render_markdown())
    });

    let mut mismatches = Vec::new();
    for (id, markdown) in rendered {
        let path = dir.join(format!("{id}.md"));
        if regen {
            // The fixture digest is a component of the experiment's
            // store key, so a post-regen `xp all` re-runs it; `xp gc`
            // reaps the pre-regen entries.
            std::fs::write(&path, &markdown).expect("write fixture");
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(want) if want == markdown => {}
            Ok(_) => mismatches.push(format!("{id}: report differs from tests/golden/{id}.md")),
            Err(e) => mismatches.push(format!("{id}: cannot read fixture {}: {e}", path.display())),
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden mismatches (GOLDEN_REGEN=1 to regenerate after intentional changes):\n  {}",
        mismatches.join("\n  ")
    );
}

#[test]
fn golden_dir_has_no_stale_fixtures() {
    // A fixture whose experiment no longer exists would silently stop
    // being checked; fail loudly instead.
    let Ok(entries) = std::fs::read_dir(golden_dir()) else {
        // Directory absent entirely: the main test reports that.
        return;
    };
    for entry in entries {
        let name = entry.expect("read dir entry").file_name();
        let name = name.to_string_lossy();
        let Some(stem) = name.strip_suffix(".md") else {
            panic!("unexpected non-fixture file in tests/golden/: {name}");
        };
        assert!(ALL_IDS.contains(&stem), "stale fixture for unknown experiment: {name}");
    }
}
