//! Canary for the lint configuration (DESIGN.md §8). Each statement
//! below commits exactly one offence that `clippy.toml` or a workspace
//! lint forbids, under an `#[expect]` naming the lint that must fire.
//! If an entry is dropped from `clippy.toml`, or clippy stops emitting
//! one of these lints, its expectation goes unfulfilled and
//! `cargo clippy --all-targets -- -D warnings` fails. Under plain
//! `cargo test` the statements just run, harmlessly.

#[test]
fn every_configured_lint_still_fires() {
    // D1: unordered containers.
    #[expect(clippy::disallowed_types, reason = "canary: D1 HashMap")]
    let _: std::collections::HashMap<u8, u8> = Default::default();
    #[expect(clippy::disallowed_types, reason = "canary: D1 HashSet")]
    let _: std::collections::HashSet<u8> = Default::default();

    // D2: wall-clock reads.
    #[expect(clippy::disallowed_types, reason = "canary: D2 SystemTime")]
    let _: std::time::SystemTime = std::time::UNIX_EPOCH;
    #[expect(clippy::disallowed_methods, reason = "canary: D2 Instant::now")]
    let _ = std::time::Instant::now();
    // Naming `SystemTime` here also fires D2's type entry.
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "canary: D2 SystemTime::now"
    )]
    let _ = std::time::SystemTime::now();

    // D3: raw threads.
    #[expect(clippy::disallowed_methods, reason = "canary: D3 thread::spawn")]
    let _ = std::thread::spawn(|| ()).join();
    #[expect(clippy::disallowed_methods, reason = "canary: D3 thread::scope")]
    std::thread::scope(|s| {
        #[expect(clippy::disallowed_methods, reason = "canary: D3 Builder::spawn_scoped")]
        let _ = std::thread::Builder::new().spawn_scoped(s, || ());
    });
    #[expect(clippy::disallowed_methods, reason = "canary: D3 Builder::spawn")]
    let _ = std::thread::Builder::new().spawn(|| ()).map(|h| h.join());

    // S1: shared mutable state.
    #[expect(clippy::disallowed_types, reason = "canary: S1 RefCell")]
    let _: std::cell::RefCell<u8> = Default::default();
    #[expect(clippy::disallowed_types, reason = "canary: S1 Cell")]
    let _: std::cell::Cell<u8> = Default::default();
    #[expect(clippy::disallowed_types, reason = "canary: S1 UnsafeCell")]
    let _: std::cell::UnsafeCell<u8> = Default::default();
    #[expect(clippy::disallowed_types, reason = "canary: S1 OnceCell")]
    let _: std::cell::OnceCell<u8> = Default::default();
    #[expect(clippy::disallowed_types, reason = "canary: S1 Mutex")]
    let _: std::sync::Mutex<u8> = Default::default();
    #[expect(clippy::disallowed_types, reason = "canary: S1 RwLock")]
    let _: std::sync::RwLock<u8> = Default::default();
    #[expect(clippy::disallowed_types, reason = "canary: S1 OnceLock")]
    let _: std::sync::OnceLock<u8> = Default::default();
    #[expect(clippy::disallowed_types, reason = "canary: S1 LazyLock")]
    let _: std::sync::LazyLock<u8> = std::sync::LazyLock::new(|| 0);
    #[expect(clippy::disallowed_types, reason = "canary: S1 Barrier")]
    let _: std::sync::Barrier = std::sync::Barrier::new(1);
    #[expect(clippy::disallowed_types, reason = "canary: S1 Condvar")]
    let _: std::sync::Condvar = Default::default();

    // S2: entropy that does not replay from the run seed.
    #[expect(clippy::disallowed_types, reason = "canary: S2 RandomState")]
    let _: std::hash::RandomState = Default::default();
    #[expect(clippy::disallowed_types, reason = "canary: S2 DefaultHasher")]
    let _: std::hash::DefaultHasher = Default::default();

    // S3: addresses.
    let (mut x, v, s): (u64, Vec<u8>, &[u8]) = (0, vec![1], &[1]);
    #[expect(clippy::disallowed_methods, reason = "canary: S3 slice::as_ptr")]
    let _ = s.as_ptr();
    #[expect(clippy::disallowed_methods, reason = "canary: S3 str::as_ptr")]
    let _ = "canary".as_ptr();
    #[expect(clippy::disallowed_methods, reason = "canary: S3 Vec::as_ptr")]
    let _ = v.as_ptr();
    #[expect(clippy::disallowed_methods, reason = "canary: S3 ptr::from_ref")]
    let _ = std::ptr::from_ref(&x);
    #[expect(clippy::disallowed_methods, reason = "canary: S3 ptr::from_mut")]
    let _ = std::ptr::from_mut(&mut x);
    let r = &x;
    #[expect(clippy::ref_as_ptr, reason = "canary: S3 a reference cast to a pointer")]
    let _ = r as *const u64;
    #[expect(clippy::borrow_as_ptr, reason = "canary: S3 a borrow cast to a pointer")]
    let _ = &x as *const u64;

    // N1: exact float comparison.
    let y = std::hint::black_box(0.5_f64);
    #[expect(clippy::float_cmp, reason = "canary: N1 float equality")]
    let _ = y == std::hint::black_box(1.5);
}
