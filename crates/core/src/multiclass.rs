//! Direct multiclass account identification — an extension beyond the
//! paper's per-category binary formulation.
//!
//! The paper trains one binary de-anonymizer per account category. Here a
//! single GSG + LDG pair with a 7-way softmax head classifies every centre
//! account into {exchange, ico-wallet, mining, phish/hack, bridge, defi,
//! normal} at once. Branches are combined by averaging their softmax
//! distributions (per-class calibration of multiclass confidences is left
//! as future work, mirroring the paper's binary-only calibration).

use crate::branch::{train_branch, Branch};
use crate::config::Dbg4EthConfig;
use crate::pipeline::lower_graphs;
use eth_graph::Subgraph;
use gnn::GraphTensors;
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};

/// Result of a multiclass run.
#[derive(Clone, Debug)]
pub struct MultiClassResult {
    /// `confusion[actual][predicted]` over the test split.
    pub confusion: Vec<Vec<usize>>,
    /// Macro-averaged F1 over classes present in the test split (percent).
    pub macro_f1: f64,
    /// Overall accuracy (percent).
    pub accuracy: f64,
    /// Per-class F1 (percent), `NaN` for classes absent from the test set.
    pub per_class_f1: Vec<f64>,
}

/// Stratified multiclass split.
fn split(
    labels: &[usize],
    n_classes: usize,
    train_frac: f64,
    seed: u64,
) -> (Vec<usize>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut train = Vec::new();
    let mut test = Vec::new();
    for c in 0..n_classes {
        let mut idx: Vec<usize> = (0..labels.len()).filter(|&i| labels[i] == c).collect();
        idx.shuffle(&mut rng);
        let cut = ((idx.len() as f64) * train_frac).round() as usize;
        let cut = cut.clamp(1.min(idx.len()), idx.len().saturating_sub(1).max(idx.len().min(1)));
        train.extend_from_slice(&idx[..cut]);
        test.extend_from_slice(&idx[cut..]);
    }
    train.shuffle(&mut rng);
    (train, test)
}

/// Softmax of a logits row.
fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut probs = vec![0.0; logits.len()];
    tensor::softmax_into(logits, &mut probs);
    probs
}

/// Per enabled branch (GSG first), the class distribution of every test
/// graph. One task per branch trains its encoder and scores the test graphs
/// through it; the tasks fan out once, so the scoring map inside each runs
/// inline on its worker (and fans out itself only for a single branch).
/// Training and scoring are deterministic per task, so the result is
/// bit-identical at any `DBG4ETH_THREADS` setting.
fn branch_dists(
    train_graphs: &[&GraphTensors],
    test_graphs: &[&GraphTensors],
    cfg: &Dbg4EthConfig,
) -> Vec<Vec<Vec<f32>>> {
    let threads = cfg.threads();
    par::par_map(threads, &Branch::enabled_in(cfg), |&branch| {
        let trained = train_branch(branch, train_graphs, cfg);
        par::par_map(threads, test_graphs, |g| softmax(&trained.logits(g)))
    })
}

/// Run the multiclass pipeline on labelled subgraphs (labels must be
/// `0..n_classes`).
pub fn run_multiclass(
    graphs: &[Subgraph],
    n_classes: usize,
    train_frac: f64,
    config: &Dbg4EthConfig,
) -> MultiClassResult {
    assert!(n_classes >= 2);
    let _span = obs::span("pipeline.multiclass");
    let mut cfg = *config;
    cfg.gsg.n_classes = n_classes;
    cfg.ldg.n_classes = n_classes;
    let labels: Vec<usize> = graphs.iter().map(|g| g.label.expect("labelled graph")).collect();
    assert!(labels.iter().all(|&l| l < n_classes), "label out of range");

    let tensors = lower_graphs(graphs, &cfg, cfg.threads());
    let (train_idx, test_idx) = split(&labels, n_classes, train_frac, cfg.seed);
    let train_graphs: Vec<&GraphTensors> = train_idx.iter().map(|&i| &tensors[i]).collect();
    let test_graphs: Vec<&GraphTensors> = test_idx.iter().map(|&i| &tensors[i]).collect();

    let dists = branch_dists(&train_graphs, &test_graphs, &cfg);
    assert!(!dists.is_empty(), "at least one branch required");

    // Average branch distributions and take the argmax.
    let mut confusion = vec![vec![0usize; n_classes]; n_classes];
    for (t, &gi) in test_idx.iter().enumerate() {
        let mut avg = vec![0.0f32; n_classes];
        for branch in &dists {
            for (a, &p) in avg.iter_mut().zip(&branch[t]) {
                *a += p / dists.len() as f32;
            }
        }
        let pred = nn::metrics::argmax(&avg);
        confusion[labels[gi]][pred] += 1;
    }

    // Per-class F1 from the confusion matrix.
    let mut per_class_f1 = Vec::with_capacity(n_classes);
    let mut macro_sum = 0.0;
    let mut macro_n = 0usize;
    let mut correct = 0usize;
    let total: usize = confusion.iter().map(|r| r.iter().sum::<usize>()).sum();
    // `c` indexes both a row and a column of the confusion matrix.
    #[allow(clippy::needless_range_loop)]
    for c in 0..n_classes {
        correct += confusion[c][c];
        let tp = confusion[c][c] as f64;
        let actual: f64 = confusion[c].iter().sum::<usize>() as f64;
        let predicted: f64 = (0..n_classes).map(|a| confusion[a][c]).sum::<usize>() as f64;
        if actual == 0.0 {
            per_class_f1.push(f64::NAN);
            continue;
        }
        let p = if predicted > 0.0 { tp / predicted } else { 0.0 };
        let r = tp / actual;
        let f1 = if p + r > 0.0 { 2.0 * p * r / (p + r) } else { 0.0 };
        per_class_f1.push(f1 * 100.0);
        macro_sum += f1 * 100.0;
        macro_n += 1;
    }
    MultiClassResult {
        confusion,
        macro_f1: macro_sum / macro_n.max(1) as f64,
        accuracy: 100.0 * correct as f64 / total.max(1) as f64,
        per_class_f1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eth_graph::SamplerConfig;
    use eth_sim::{multiclass_graphs, AccountClass, World, WorldConfig};

    #[test]
    fn multiclass_runs_and_beats_chance() {
        let world = World::generate(
            WorldConfig { n_background: 500, seed: 2, ..Default::default() },
            &[(AccountClass::Exchange, 10), (AccountClass::Mining, 10), (AccountClass::Normal, 10)],
        );
        let graphs = multiclass_graphs(&world, SamplerConfig::new(15, 2));
        // Only 3 of the 7 labels appear; run with the full 7-way head.
        let mut cfg = Dbg4EthConfig::fast();
        cfg.epochs = 20;
        cfg.lr = 0.01;
        cfg.gsg.hidden = 16;
        cfg.gsg.d_out = 8;
        cfg.ldg.hidden = 16;
        cfg.ldg.d_out = 8;
        cfg.ldg.pool_clusters = [6, 3, 1];
        cfg.t_slices = 4;
        cfg.use_ldg = false; // keep the test fast
        let result = run_multiclass(&graphs, 7, 0.7, &cfg);
        let total: usize = result.confusion.iter().map(|r| r.iter().sum::<usize>()).sum();
        assert_eq!(total, 9, "3 classes x 3 test graphs");
        // 3 balanced classes -> chance = 33%; require clearly better.
        assert!(result.accuracy > 50.0, "accuracy {:.1}", result.accuracy);
        // Confusion rows for absent classes are empty, F1 NaN.
        assert!(result.per_class_f1[1].is_nan(), "ico-wallet absent");
        assert!(!result.per_class_f1[0].is_nan(), "exchange present");
    }

    /// Like the binary pipeline, multiclass output is a function of the
    /// config alone — worker-thread count never changes a single bit.
    #[test]
    fn multiclass_is_thread_invariant() {
        let world = World::generate(
            WorldConfig { n_background: 400, seed: 3, ..Default::default() },
            &[(AccountClass::Exchange, 8), (AccountClass::Mining, 8), (AccountClass::Normal, 8)],
        );
        let graphs = multiclass_graphs(&world, SamplerConfig::new(12, 2));
        let mut cfg = Dbg4EthConfig::fast();
        cfg.epochs = 6;
        cfg.gsg.hidden = 16;
        cfg.gsg.d_out = 8;
        cfg.ldg.hidden = 16;
        cfg.ldg.d_out = 8;
        cfg.ldg.pool_clusters = [6, 3, 1];
        cfg.t_slices = 4;
        cfg.parallelism = 1;
        let serial = run_multiclass(&graphs, 7, 0.7, &cfg);
        for threads in [2, 8] {
            cfg.parallelism = threads;
            let parallel = run_multiclass(&graphs, 7, 0.7, &cfg);
            assert_eq!(parallel.confusion, serial.confusion, "{threads} threads");
            assert_eq!(parallel.accuracy.to_bits(), serial.accuracy.to_bits());
            assert_eq!(parallel.macro_f1.to_bits(), serial.macro_f1.to_bits());
            let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&parallel.per_class_f1), bits(&serial.per_class_f1));
        }
    }

    /// Each branch's test distributions come from that branch's own scoring
    /// path: the dists are exactly `softmax(branch.logits)`.
    #[test]
    fn dists_match_the_branch_scoring_path() {
        use gnn::{GsgConfig, LdgConfig};
        let world = World::generate(
            WorldConfig { n_background: 400, seed: 4, ..Default::default() },
            &[(AccountClass::Exchange, 5), (AccountClass::Mining, 5), (AccountClass::Normal, 5)],
        );
        let graphs = multiclass_graphs(&world, SamplerConfig::new(12, 2));
        let cfg = Dbg4EthConfig::builder()
            .epochs(2)
            .t_slices(4)
            .gsg(GsgConfig { hidden: 16, d_out: 8, n_classes: 7, ..GsgConfig::default() })
            .ldg(LdgConfig {
                hidden: 16,
                d_out: 8,
                pool_clusters: [6, 3, 1],
                n_classes: 7,
                ..LdgConfig::default()
            })
            .build()
            .expect("valid configuration");
        let tensors = lower_graphs(&graphs, &cfg, 1);
        let refs: Vec<&GraphTensors> = tensors.iter().collect();
        let dists = branch_dists(&refs, &refs, &cfg);
        assert_eq!(dists.len(), 2, "both branches enabled");

        let gsg = train_branch(Branch::Gsg, &refs, &cfg);
        let ldg = train_branch(Branch::Ldg, &refs, &cfg);
        let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        for (k, g) in refs.iter().enumerate() {
            assert_eq!(bits(&dists[0][k]), bits(&softmax(&gsg.logits(g))), "GSG graph {k}");
            assert_eq!(bits(&dists[1][k]), bits(&softmax(&ldg.logits(g))), "LDG graph {k}");
        }
    }

    #[test]
    fn stratified_split_keeps_all_classes() {
        let labels = vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 2];
        let (train, test) = split(&labels, 3, 0.7, 5);
        assert_eq!(train.len() + test.len(), labels.len());
        for c in 0..3 {
            assert!(train.iter().any(|&i| labels[i] == c), "class {c} missing from train");
            assert!(test.iter().any(|&i| labels[i] == c), "class {c} missing from test");
        }
    }
}
