//! Adjacency builders for the GNN layers.

use tensor::Csr;

/// Symmetrically normalised adjacency with self-loops,
/// `D^{-1/2} (A + I) D^{-1/2}` (the GCN propagation matrix of Eq. 14),
/// built straight from the edge list in compressed sparse row form.
///
/// `edges` are directed `(src, dst, weight)` triples; the matrix is
/// symmetrised (`A[u][v] = A[v][u] = max of provided weights`) because GCN
/// operates on an undirected view. Pass weight 1.0 for an unweighted graph.
/// Only weights that are positive as `f32` enter the matrix (zero, negative
/// and NaN weights add nothing), and every diagonal entry is at least 1.
///
/// The result is bit-identical to normalising the dense `n × n` matrix and
/// keeping its entries `!= 0.0` with [`Csr::from_dense`]: each degree sums
/// its row's stored entries in ascending column order — the dense row sum
/// without its `+0.0` terms, whose addition to a non-negative partial sum
/// is exact — and each value is `a * inv_sqrt[r] * inv_sqrt[c]`, in that
/// order. Normalised values that underflow to zero are dropped, as the
/// dense conversion drops them.
pub fn gcn_norm_adjacency(n: usize, edges: &[(usize, usize, f64)]) -> Csr {
    let mut entries: Vec<(usize, usize, f32)> = Vec::with_capacity(2 * edges.len() + n);
    for &(u, v, w) in edges {
        assert!(u < n && v < n, "edge ({u}, {v}) out of bounds for n = {n}");
        let w = w as f32;
        if w > 0.0 {
            entries.push((u, v, w));
            entries.push((v, u, w));
        }
    }
    entries.extend((0..n).map(|i| (i, i, 1.0))); // self-loops
    entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
    // Every weight left is positive and not NaN, so the symmetrised
    // maximum does not depend on the order duplicates arrive in.
    entries.dedup_by(|next, kept| {
        let same = (next.0, next.1) == (kept.0, kept.1);
        if same {
            kept.2 = kept.2.max(next.2);
        }
        same
    });
    let mut deg = vec![0.0f32; n];
    for &(r, _, a) in &entries {
        deg[r] += a;
    }
    let inv_sqrt: Vec<f32> =
        deg.iter().map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 }).collect();
    for e in &mut entries {
        e.2 = e.2 * inv_sqrt[e.0] * inv_sqrt[e.1];
    }
    entries.retain(|&(_, _, v)| v != 0.0);
    Csr::from_triplets(n, n, &entries)
}

/// Log-scaled edge weights: `ln(1 + w)`. Raw ETH amounts span many orders of
/// magnitude; GNN inputs need bounded dynamic range.
pub fn log_scale_weight(w: f64) -> f64 {
    (1.0 + w.max(0.0)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tensor::Tensor;

    /// The dense `n × n` normaliser [`gcn_norm_adjacency`] must reproduce
    /// bit for bit once converted with [`Csr::from_dense`].
    fn dense_reference(n: usize, edges: &[(usize, usize, f64)]) -> Tensor {
        let mut a = Tensor::zeros(n, n);
        for &(u, v, w) in edges {
            let w = w as f32;
            if w > a.get(u, v) {
                a.set(u, v, w);
                a.set(v, u, w);
            }
        }
        for i in 0..n {
            a.set(i, i, a.get(i, i).max(1.0));
        }
        let deg: Vec<f32> = (0..n).map(|r| a.row(r).iter().sum::<f32>()).collect();
        let inv_sqrt: Vec<f32> =
            deg.iter().map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 }).collect();
        for r in 0..n {
            for c in 0..n {
                a.set(r, c, a.get(r, c) * inv_sqrt[r] * inv_sqrt[c]);
            }
        }
        a
    }

    /// Edge weights: mostly ordinary magnitudes, plus the values the dense
    /// loop treats specially — zeros, negatives, NaN, values that become
    /// subnormal or infinite as `f32`.
    fn weight(code: u8, x: f64) -> f64 {
        match code {
            0 => 0.0,
            1 => -0.0,
            2 => -x,
            3 => f64::NAN,
            4 => 1e-45,
            5 => 1e-39,
            6 => 1e39,
            _ => x,
        }
    }

    /// `(n, edges)`: endpoints are drawn from the first `k` of `n` nodes,
    /// so nodes `k..n` are isolated; an edge may be a self-loop and may come
    /// back reversed with a second weight.
    fn edge_lists() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
        (1..41usize).prop_flat_map(|n| (Just(n), 1..=n)).prop_flat_map(|(n, k)| {
            let edge = (0..k, 0..k, (0..16u8, 0.0..6.0f64), (0..16u8, 0.0..6.0f64), any::<bool>());
            prop::collection::vec(edge, 0..3 * k + 1).prop_map(move |raw| {
                let mut edges = Vec::new();
                for (u, v, (c1, x1), (c2, x2), reversed) in raw {
                    edges.push((u, v, weight(c1, x1)));
                    if reversed {
                        edges.push((v, u, weight(c2, x2)));
                    }
                }
                (n, edges)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sparse_builder_is_bit_identical_to_dense_reference((n, edges) in edge_lists()) {
            let sparse = gcn_norm_adjacency(n, &edges);
            let dense = Csr::from_dense(&dense_reference(n, &edges));
            prop_assert_eq!(sparse.shape(), (n, n));
            prop_assert_eq!(sparse.nnz(), dense.nnz());
            prop_assert_eq!(sparse.to_dense().to_bits_vec(), dense.to_dense().to_bits_vec());
        }
    }

    #[test]
    fn gcn_norm_is_symmetric_with_self_loops() {
        let a = gcn_norm_adjacency(3, &[(0, 1, 1.0), (1, 2, 1.0)]).to_dense();
        for r in 0..3 {
            assert!(a.get(r, r) > 0.0, "self-loop missing at {r}");
            for c in 0..3 {
                assert!((a.get(r, c) - a.get(c, r)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn gcn_norm_known_values_for_pair() {
        // Two nodes, one edge: A+I = [[1,1],[1,1]], deg = 2 each, so every
        // entry becomes 1/2.
        let a = gcn_norm_adjacency(2, &[(0, 1, 1.0)]);
        assert_eq!(a.nnz(), 4);
        let a = a.to_dense();
        for r in 0..2 {
            for c in 0..2 {
                assert!((a.get(r, c) - 0.5).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn log_scale_is_monotone_and_nonnegative() {
        assert_eq!(log_scale_weight(0.0), 0.0);
        assert!(log_scale_weight(10.0) > log_scale_weight(1.0));
        assert!(log_scale_weight(-5.0) >= 0.0); // clamps negatives
    }
}
