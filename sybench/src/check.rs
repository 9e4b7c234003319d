//! Output checks against `sygraph_algos::reference`, with the
//! tolerances the repository's `tests/algorithms_vs_reference.rs` uses:
//! exact for BFS levels and CC labels, 1e-3 absolute for shortest-path
//! distances and PageRank, 1e-2 relative for betweenness.

/// BFS levels and CC labels must match exactly.
pub fn exact(got: &[u32], want: &[u32]) -> bool {
    got == want
}

/// SSSP / Δ-SSSP distances: both unreachable, or within 1e-3.
pub fn distances(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3)
}

/// PageRank scores within 1e-3 of the reference.
pub fn ranks(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(a, b)| (a - b).abs() < 1e-3)
}

/// Betweenness scores within 1e-2 relative.
pub fn centrality(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| (a - b).abs() < 1e-2 * (1.0 + b.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerances_accept_rounding_and_reject_errors() {
        assert!(exact(&[0, 1, 2], &[0, 1, 2]));
        assert!(!exact(&[0, 1, 2], &[0, 2, 1]));
        assert!(distances(&[0.0, f32::INFINITY], &[0.0004, f32::INFINITY]));
        assert!(!distances(&[0.0, 1.0], &[0.0, f32::INFINITY]));
        assert!(ranks(&[0.5, 0.5], &[0.5004, 0.4996]));
        assert!(!ranks(&[0.5, 0.5], &[0.6, 0.4]));
        assert!(centrality(&[100.0], &[100.5]));
        assert!(!centrality(&[100.0], &[110.0]));
        assert!(!exact(&[0], &[0, 1]));
    }
}
