//! S1 fixture: shared mutable state in the engine crate, plus decoys.

static mut EVENT_COUNT: u64 = 0;

pub struct Scratch {
    inner: std::cell::RefCell<Vec<u64>>,
}

// A decoy: `RefCell` in a comment must not fire.
const DECOY: &str = "RefCell in a string is silent";

// Immutable sharing is fine: S1 deliberately does not match bare Arc/Rc.
pub type Payload = std::sync::Arc<[u8]>;

// lint: allow(S1, reason = "write-once registry initialized before any dispatch runs")
pub static REGISTRY: std::sync::OnceLock<u32> = std::sync::OnceLock::new();

// A rendezvous fires S1 like any other shared mutable state: a barrier
// only exists to coordinate threads that share state.
pub fn rendezvous(b: &std::sync::Barrier) {
    b.wait();
}

// lint: allow(S1, reason = "fixture: a reasoned allow sanctions one barrier site")
pub fn sanctioned(b: &std::sync::Barrier) {
    b.wait();
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    #[test]
    fn cells_in_tests_are_fine() {
        let c = Cell::new(0u32);
        c.set(1);
        assert_eq!(c.get(), 1);
    }
}
