//! Shared training/evaluation harness for graph-classification baselines.

use eth_sim::{GraphDataset, POSITIVE};
use gnn::GraphTensors;
use nn::metrics::Metrics;
use nn::{Adam, Ctx, ParamStore};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};
use std::sync::Arc;
use tensor::{Tape, Var};

/// The one segment spanning every row of `h`: a single graph pools through
/// the same segment ops as the batched encoders.
pub(crate) fn all_rows(tape: &Tape, h: Var) -> Arc<Vec<usize>> {
    Arc::new(vec![0, tape.value(h).rows()])
}

/// A model that maps one lowered subgraph to class logits `(1, 2)`.
pub trait GraphModel {
    fn forward(&self, tape: &mut Tape, ctx: &mut Ctx, store: &ParamStore, g: &GraphTensors) -> Var;
}

/// Baseline training hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 12, batch_size: 8, lr: 0.005, seed: 42 }
    }
}

/// Train a [`GraphModel`] with cross-entropy on labelled graphs.
pub fn train_model<M: GraphModel>(
    model: &M,
    store: &mut ParamStore,
    graphs: &[&GraphTensors],
    config: TrainConfig,
) {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xBA5E);
    let mut opt = Adam::new(config.lr);
    for _ in 0..config.epochs {
        let mut idx: Vec<usize> = (0..graphs.len()).collect();
        idx.shuffle(&mut rng);
        for batch in idx.chunks(config.batch_size.max(1)) {
            store.zero_grad();
            let mut tape = Tape::new();
            let mut ctx = Ctx::new(store);
            let mut logits: Option<Var> = None;
            let mut targets = Vec::with_capacity(batch.len());
            for &gi in batch {
                let out = model.forward(&mut tape, &mut ctx, store, graphs[gi]);
                logits = Some(match logits {
                    None => out,
                    Some(acc) => tape.concat_rows(acc, out),
                });
                targets.push(graphs[gi].label.expect("labelled graph"));
            }
            let loss = tape.cross_entropy(logits.expect("non-empty batch"), Arc::new(targets));
            tape.backward(loss);
            ctx.accumulate_grads(&tape, store);
            store.clip_grad_norm(5.0);
            opt.step(store);
        }
    }
}

/// P(positive) for each graph under a trained model.
pub fn predict_model<M: GraphModel>(
    model: &M,
    store: &ParamStore,
    graphs: &[&GraphTensors],
) -> Vec<f64> {
    graphs
        .iter()
        .map(|g| {
            let mut tape = Tape::new();
            let mut ctx = Ctx::new(store);
            let logits = model.forward(&mut tape, &mut ctx, store, g);
            let probs = tape.softmax_rows(logits);
            tape.value(probs).get(0, 1) as f64
        })
        .collect()
}

/// Lower a dataset once (with or without the 15-dim node features) and
/// return tensors, labels and the standard split.
pub struct LoweredDataset {
    pub tensors: Vec<GraphTensors>,
    pub labels: Vec<bool>,
    pub train_idx: Vec<usize>,
    pub test_idx: Vec<usize>,
}

impl LoweredDataset {
    pub fn new(
        dataset: &GraphDataset,
        t_slices: usize,
        with_features: bool,
        train_frac: f64,
        seed: u64,
    ) -> Self {
        let tensors: Vec<GraphTensors> = dataset
            .graphs
            .iter()
            .map(|g| {
                if with_features {
                    GraphTensors::from_subgraph(g, t_slices)
                } else {
                    GraphTensors::without_node_features(g, t_slices)
                }
            })
            .collect();
        let labels = dataset.graphs.iter().map(|g| g.label == Some(POSITIVE)).collect();
        let (train_idx, test_idx) = dataset.split(train_frac, seed);
        Self { tensors, labels, train_idx, test_idx }
    }

    pub fn train_graphs(&self) -> Vec<&GraphTensors> {
        self.train_idx.iter().map(|&i| &self.tensors[i]).collect()
    }

    pub fn test_graphs(&self) -> Vec<&GraphTensors> {
        self.test_idx.iter().map(|&i| &self.tensors[i]).collect()
    }

    pub fn test_labels(&self) -> Vec<bool> {
        self.test_idx.iter().map(|&i| self.labels[i]).collect()
    }

    pub fn train_labels(&self) -> Vec<bool> {
        self.train_idx.iter().map(|&i| self.labels[i]).collect()
    }
}

/// Metrics from scores at the 0.5 threshold (percentages, as in Table III).
pub fn score_metrics(scores: &[f64], labels: &[bool]) -> Metrics {
    Metrics::from_scores(scores, labels, 0.5)
}

/// L2-regularised logistic regression via gradient descent — the simple
/// downstream classifier for the embedding baselines.
pub struct LogisticRegression {
    w: Vec<f64>,
    b: f64,
}

impl LogisticRegression {
    pub fn fit(x: &[Vec<f64>], y: &[bool], epochs: usize, lr: f64, l2: f64) -> Self {
        assert_eq!(x.len(), y.len());
        let d = x.first().map_or(0, Vec::len);
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        let n = x.len().max(1) as f64;
        for _ in 0..epochs {
            let mut gw = vec![0.0; d];
            let mut gb = 0.0;
            for (row, &label) in x.iter().zip(y) {
                let z: f64 = row.iter().zip(&w).map(|(&a, &wi)| a * wi).sum::<f64>() + b;
                let p = 1.0 / (1.0 + (-z).exp());
                let err = p - if label { 1.0 } else { 0.0 };
                for (g, &a) in gw.iter_mut().zip(row) {
                    *g += err * a;
                }
                gb += err;
            }
            for (wi, g) in w.iter_mut().zip(&gw) {
                *wi -= lr * (g / n + l2 * *wi);
            }
            b -= lr * gb / n;
        }
        Self { w, b }
    }

    pub fn predict_proba(&self, row: &[f64]) -> f64 {
        let z: f64 = row.iter().zip(&self.w).map(|(&a, &w)| a * w).sum::<f64>() + self.b;
        1.0 / (1.0 + (-z).exp())
    }

    pub fn predict_proba_all(&self, x: &[Vec<f64>]) -> Vec<f64> {
        x.iter().map(|r| self.predict_proba(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logistic_regression_separates_1d() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 10.0 - 2.0]).collect();
        let y: Vec<bool> = (0..40).map(|i| i >= 20).collect();
        let lr = LogisticRegression::fit(&x, &y, 500, 0.5, 1e-4);
        let correct = x.iter().zip(&y).filter(|(r, l)| (lr.predict_proba(r) >= 0.5) == **l).count();
        assert!(correct >= 38, "acc {correct}/40");
    }

    #[test]
    fn logistic_regression_probability_monotone_in_feature() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<bool> = (0..20).map(|i| i >= 10).collect();
        let lr = LogisticRegression::fit(&x, &y, 300, 0.1, 0.0);
        assert!(lr.predict_proba(&[19.0]) > lr.predict_proba(&[0.0]));
    }
}
