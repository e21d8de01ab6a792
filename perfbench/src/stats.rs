//! Order statistics for the benchmark's own figures.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile of `xs`, interpolating linearly between the two
/// closest order statistics (Hyndman–Fan type 7). With fewer than ten
/// samples a low quantile sits between the smallest two. `None` for no
/// samples.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    let v = sorted(xs);
    let last = v.len().checked_sub(1)?;
    let h = last as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(last);
    Some(v[lo] + (v[hi] - v[lo]) * (h - lo as f64))
}

/// The three quartiles exactly as Python's
/// `statistics.quantiles(xs, n=4)` gives them (its default "exclusive"
/// method), which is how run-to-run spread is judged. `None` for fewer
/// than two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    if v.len() < 2 {
        return None;
    }
    let ld = v.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let (a, b) = (v[(j - 1) as usize], v[j as usize]);
        *slot = (a * (4.0 - delta) + b * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert!(close(quantile(&xs, 0.1).unwrap(), 2.0));
        assert!(close(quantile(&xs, 0.5).unwrap(), 6.0));
        assert!(close(quantile(&xs, 0.9).unwrap(), 10.0));
        let shuffled = [40.0, 10.0, 30.0, 20.0];
        assert!(close(quantile(&shuffled, 0.5).unwrap(), 25.0));
        assert!(close(quantile(&shuffled, 0.1).unwrap(), 13.0));
    }

    #[test]
    fn quantile_handles_runs_shorter_than_ten_ops() {
        assert_eq!(quantile(&[], 0.1), None);
        assert_eq!(quantile(&[7.5], 0.1), Some(7.5));
        assert!(close(quantile(&[9.0, 5.0], 0.1).unwrap(), 5.4));
        let five = [3.0, 1.0, 5.0, 2.0, 4.0];
        assert!(close(quantile(&five, 0.1).unwrap(), 1.4));
        assert_eq!(quantile(&five, 0.0), Some(1.0));
        assert_eq!(quantile(&five, 1.0), Some(5.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from statistics.quantiles(xs, n=4).
        let cases: [(&[f64], [f64; 3]); 4] = [
            (&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0], [2.75, 5.5, 8.25]),
            (&[3.0, 1.0], [0.5, 2.0, 3.5]),
            (&[5.0, 1.0, 4.0], [1.0, 4.0, 5.0]),
            (&[2.5, 9.0, 4.0, 7.5, 1.0], [1.75, 4.0, 8.25]),
        ];
        for (xs, want) in cases {
            let got = quartiles(xs).unwrap();
            assert!(got.iter().zip(want).all(|(g, w)| close(*g, w)), "{xs:?}: {got:?}");
        }
        assert_eq!(quartiles(&[1.0]), None);
    }
}
