//! Pareto frontiers over many operating points.
//!
//! The paper frames two-system comparisons, but its machinery generalizes
//! "when comparing larger numbers of systems" (§4). The frontier is the
//! set of designs not dominated by any other — the menu of defensible
//! choices a survey should present.

use crate::dominance::{relate, Relation};
use crate::point::OperatingPoint;

/// Returns the indices of the points on the Pareto frontier (not
/// dominated by any other point), in input order.
///
/// Duplicated (equivalent) points all stay on the frontier: dominance is
/// strict, so equals do not eliminate each other.
///
/// Complexity is O(n log n) via a sort on the cost axis followed by a
/// single sweep, rather than the naive O(n²) pairwise check.
///
/// # Examples
///
/// ```
/// use apples_core::{pareto_frontier, OperatingPoint};
/// use apples_metrics::{perf::PerfMetric, CostMetric};
/// use apples_metrics::quantity::{gbps, watts};
///
/// let tp = |g, w| OperatingPoint::new(
///     PerfMetric::throughput_bps().value(gbps(g)),
///     CostMetric::power_draw().value(watts(w)),
/// );
/// let designs = vec![
///     tp(10.0, 50.0),  // cheap and slow: on the frontier
///     tp(30.0, 90.0),  // fast and costly: on the frontier
///     tp(9.0, 60.0),   // dominated by the first
/// ];
/// assert_eq!(pareto_frontier(&designs), vec![0, 1]);
/// ```
pub fn pareto_frontier(points: &[OperatingPoint]) -> Vec<usize> {
    if points.is_empty() {
        return Vec::new();
    }
    for p in &points[1..] {
        points[0].assert_same_axes(p);
    }

    // Sort by cost ascending (cheapest first); among equal costs, best
    // performance first so the sweep sees the strongest candidate first.
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&i, &j| {
        let a = &points[i];
        let b = &points[j];
        #[expect(
            clippy::expect_used,
            reason = "invariant: all points share axes, validated by assert_same_axes at frontier entry"
        )]
        let cost_cmp =
            a.cost().quantity().partial_cmp_checked(b.cost().quantity()).expect("same axes");
        cost_cmp.then_with(|| {
            // Better perf first.
            if a.perf().is_better_than(b.perf()) {
                std::cmp::Ordering::Less
            } else if b.perf().is_better_than(a.perf()) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        })
    });

    // Sweep: a point is dominated iff some cheaper-or-equal point has
    // better-or-equal performance (with at least one strict). Track the
    // best performance seen so far; equal-cost ties need the pairwise
    // check against the current best to handle exact duplicates.
    let mut frontier = Vec::new();
    let mut best_so_far: Option<usize> = None;
    for &i in &order {
        let dominated = match best_so_far {
            None => false,
            Some(j) => relate(&points[j], &points[i]) == Relation::Dominates,
        };
        if !dominated {
            frontier.push(i);
            let better = match best_so_far {
                None => true,
                Some(j) => points[i].perf().is_better_than(points[j].perf()),
            };
            if better {
                best_so_far = Some(i);
            }
        }
    }
    frontier.sort_unstable();
    frontier
}

/// Convenience: true when `points[i]` is on the frontier of `points`.
pub fn is_pareto_optimal(points: &[OperatingPoint], i: usize) -> bool {
    pareto_frontier(points).contains(&i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::test_support::tp;

    #[test]
    fn empty_input() {
        assert!(pareto_frontier(&[]).is_empty());
    }

    #[test]
    fn single_point_is_optimal() {
        assert_eq!(pareto_frontier(&[tp(10.0, 50.0)]), vec![0]);
    }

    #[test]
    fn dominated_points_are_dropped() {
        let pts = vec![
            tp(10.0, 50.0), // frontier
            tp(20.0, 70.0), // frontier
            tp(9.0, 60.0),  // dominated by 0
            tp(15.0, 90.0), // dominated by 1
        ];
        assert_eq!(pareto_frontier(&pts), vec![0, 1]);
    }

    #[test]
    fn tradeoff_chain_is_fully_optimal() {
        let pts = vec![tp(10.0, 50.0), tp(20.0, 70.0), tp(35.0, 100.0), tp(100.0, 200.0)];
        assert_eq!(pareto_frontier(&pts), vec![0, 1, 2, 3]);
    }

    #[test]
    fn duplicates_all_survive() {
        let pts = vec![tp(10.0, 50.0), tp(10.0, 50.0)];
        assert_eq!(pareto_frontier(&pts), vec![0, 1]);
    }

    #[test]
    fn equal_cost_worse_perf_is_dominated() {
        let pts = vec![tp(10.0, 50.0), tp(12.0, 50.0)];
        assert_eq!(pareto_frontier(&pts), vec![1]);
    }

    #[test]
    fn equal_perf_higher_cost_is_dominated() {
        let pts = vec![tp(10.0, 50.0), tp(10.0, 60.0)];
        assert_eq!(pareto_frontier(&pts), vec![0]);
    }

    #[test]
    fn frontier_matches_naive_quadratic_check() {
        // Deterministic pseudo-random point cloud.
        let mut pts = Vec::new();
        let mut state = 0x2545F4914F6CDD1D_u64;
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let g = 1.0 + (state >> 40) as f64 / 1e4;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let w = 10.0 + (state >> 40) as f64 / 1e3;
            pts.push(tp(g, w));
        }
        let fast = pareto_frontier(&pts);
        let naive: Vec<usize> = (0..pts.len())
            .filter(|&i| {
                !(0..pts.len()).any(|j| j != i && relate(&pts[j], &pts[i]) == Relation::Dominates)
            })
            .collect();
        assert_eq!(fast, naive);
    }

    #[test]
    fn membership_helper() {
        let pts = vec![tp(10.0, 50.0), tp(9.0, 60.0)];
        assert!(is_pareto_optimal(&pts, 0));
        assert!(!is_pareto_optimal(&pts, 1));
    }
}
