//! Jain's fairness index (Jain, Chiu, Hawe 1984), cited by §4.3 as a
//! canonical non-scalable performance metric.
//!
//! For allocations `x_1..x_n`, `JFI = (Σx)² / (n · Σx²)`. It is 1 when
//! all allocations are equal and `k/n` when `k` of `n` users share the
//! resource equally while the rest get nothing.

/// Computes Jain's fairness index over a slice of non-negative
/// allocations. Returns `None` for an empty slice or when every
/// allocation is zero (the index is undefined there).
///
/// # Examples
///
/// ```
/// use apples_metrics::fairness::jains_index;
///
/// assert_eq!(jains_index(&[5.0, 5.0, 5.0, 5.0]), Some(1.0)); // perfectly fair
/// assert_eq!(jains_index(&[3.0, 3.0, 0.0, 0.0]), Some(0.5)); // 2 of 4 served
/// assert_eq!(jains_index(&[]), None);
/// ```
pub fn jains_index(allocations: &[f64]) -> Option<f64> {
    if allocations.is_empty() {
        return None;
    }
    assert!(
        allocations.iter().all(|x| x.is_finite() && *x >= 0.0),
        "allocations must be finite and non-negative"
    );
    let sum: f64 = allocations.iter().sum();
    let sum_sq: f64 = allocations.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return None;
    }
    Some(sum * sum / (allocations.len() as f64 * sum_sq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apples_rng::Rng;

    #[test]
    fn equal_allocations_give_one() {
        assert!((jains_index(&[5.0, 5.0, 5.0, 5.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((jains_index(&[0.1]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn k_of_n_equal_share_gives_k_over_n() {
        // 2 of 4 flows get equal service, 2 get nothing: JFI = 0.5.
        assert!((jains_index(&[3.0, 3.0, 0.0, 0.0]).unwrap() - 0.5).abs() < 1e-12);
        // 1 of 5: JFI = 0.2.
        assert!((jains_index(&[7.0, 0.0, 0.0, 0.0, 0.0]).unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn undefined_cases() {
        assert_eq!(jains_index(&[]), None);
        assert_eq!(jains_index(&[0.0, 0.0]), None);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_allocations_rejected() {
        let _ = jains_index(&[1.0, -1.0]);
    }

    fn random_vec(rng: &mut Rng, max_len: usize, lo: f64, hi: f64) -> Vec<f64> {
        let len = rng.range_usize(1, max_len);
        (0..len).map(|_| rng.range_f64(lo, hi)).collect()
    }

    #[test]
    fn index_is_within_bounds() {
        let mut rng = Rng::seed_from_u64(0xFA1);
        for _ in 0..500 {
            let xs = random_vec(&mut rng, 64, 0.0, 1e6);
            if let Some(j) = jains_index(&xs) {
                let n = xs.len() as f64;
                assert!(j >= 1.0 / n - 1e-9, "JFI {j} below 1/n");
                assert!(j <= 1.0 + 1e-9, "JFI {j} above 1");
            }
        }
    }

    #[test]
    fn index_is_scale_invariant() {
        let mut rng = Rng::seed_from_u64(0xFA2);
        for _ in 0..500 {
            let xs = random_vec(&mut rng, 32, 0.001, 1e3);
            let k = rng.range_f64(0.001, 1e3);
            let a = jains_index(&xs);
            let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
            let b = jains_index(&scaled);
            match (a, b) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9),
                (None, None) => {}
                _ => panic!("scaling changed definedness"),
            }
        }
    }

    #[test]
    fn replication_does_not_change_index() {
        // The §4.3 point operationalized: duplicating the system
        // (same per-flow allocations on a replica) leaves JFI fixed,
        // so horizontal scaling cannot improve it.
        let mut rng = Rng::seed_from_u64(0xFA3);
        for _ in 0..500 {
            let xs = random_vec(&mut rng, 16, 0.001, 1e3);
            let single = jains_index(&xs).unwrap();
            let mut doubled = xs.clone();
            doubled.extend_from_slice(&xs);
            let replicated = jains_index(&doubled).unwrap();
            assert!((single - replicated).abs() < 1e-9);
        }
    }
}
