//! Gradient-boosted decision trees with logistic loss.
//!
//! Two presets mirror the classifiers compared in Fig. 7:
//! [`GbdtConfig::lightgbm`] (leaf-wise growth, LightGBM's policy — the
//! paper's chosen classifier) and [`GbdtConfig::xgboost`] (level-wise
//! growth).

use crate::tree::{Growth, RegressionTree, TreeConfig};

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Boosting hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct GbdtConfig {
    pub n_trees: usize,
    pub learning_rate: f64,
    pub tree: TreeConfig,
}

impl GbdtConfig {
    /// LightGBM-style: best-first leaf growth.
    pub fn lightgbm() -> Self {
        Self {
            n_trees: 60,
            learning_rate: 0.1,
            tree: TreeConfig { growth: Growth::LeafWise { max_leaves: 15 }, ..Default::default() },
        }
    }

    /// XGBoost-style: level-wise growth.
    pub fn xgboost() -> Self {
        Self {
            n_trees: 60,
            learning_rate: 0.1,
            tree: TreeConfig { growth: Growth::DepthWise { max_depth: 4 }, ..Default::default() },
        }
    }
}

/// A fitted binary GBDT classifier.
pub struct Gbdt {
    pub config: GbdtConfig,
    pub(crate) base_score: f64,
    pub(crate) trees: Vec<RegressionTree>,
}

impl Gbdt {
    /// Fit with logistic loss: per round, `g = p − y`, `h = p (1 − p)`.
    pub fn fit(x: &[Vec<f64>], y: &[bool], config: GbdtConfig) -> Self {
        let _span = obs::span("boost.gbdt.fit");
        assert_eq!(x.len(), y.len());
        let n = x.len();
        let pos = y.iter().filter(|&&v| v).count() as f64;
        let prior = (pos / n.max(1) as f64).clamp(1e-6, 1.0 - 1e-6);
        let base_score = (prior / (1.0 - prior)).ln();

        let mut f: Vec<f64> = vec![base_score; n];
        let mut trees = Vec::with_capacity(config.n_trees);
        let mut g = vec![0.0; n];
        let mut h = vec![0.0; n];
        for _ in 0..config.n_trees {
            for i in 0..n {
                let p = sigmoid(f[i]);
                g[i] = p - if y[i] { 1.0 } else { 0.0 };
                h[i] = (p * (1.0 - p)).max(1e-9);
            }
            let tree = RegressionTree::fit(x, &g, &h, &config.tree);
            for (fi, row) in f.iter_mut().zip(x) {
                *fi += config.learning_rate * tree.predict(row);
            }
            trees.push(tree);
        }
        obs::counter_add("boost.gbdt.fits", 1);
        obs::counter_add("boost.gbdt.trees", config.n_trees as u64);
        obs::debug!("boost", "gbdt fit: {} rows, {} trees", n, config.n_trees);
        Self { config, base_score, trees }
    }

    /// Raw margin (log-odds) for one sample.
    pub fn decision(&self, row: &[f64]) -> f64 {
        let mut f = self.base_score;
        for t in &self.trees {
            f += self.config.learning_rate * t.predict(row);
        }
        f
    }

    /// P(positive) for one sample.
    pub fn predict_proba(&self, row: &[f64]) -> f64 {
        sigmoid(self.decision(row))
    }

    /// P(positive) for a batch.
    pub fn predict_proba_all(&self, x: &[Vec<f64>]) -> Vec<f64> {
        let _span = obs::span("boost.gbdt.predict");
        x.iter()
            .enumerate()
            .map(|(i, row)| {
                // `panic@boost.predict:<row>` injection point — exercised
                // through the classifier's per-row fallback in `infer`.
                faults::maybe_panic("boost.predict", Some(i));
                self.predict_proba(row)
            })
            .collect()
    }

    /// Hard predictions at threshold 0.5.
    pub fn predict_all(&self, x: &[Vec<f64>]) -> Vec<bool> {
        x.iter().map(|r| self.predict_proba(r) >= 0.5).collect()
    }

    /// Gain-based feature importance, normalised to sum to 1 (all-zero if
    /// no split was ever made).
    pub fn feature_importance(&self, n_features: usize) -> Vec<f64> {
        let mut imp = vec![0.0; n_features];
        for tree in &self.trees {
            tree.accumulate_importance(&mut imp);
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two interleaved half-moons-ish clusters in 2D, not linearly
    /// separable along a single axis.
    fn xor_data(n: usize) -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let a = (i % 2) as f64;
            let b = ((i / 2) % 2) as f64;
            // Deterministic jitter to avoid duplicate coordinates.
            let j = (i as f64 * 0.618).fract() * 0.2;
            x.push(vec![a + j, b - j]);
            y.push((a as i32 ^ b as i32) == 1);
        }
        (x, y)
    }

    #[test]
    fn lightgbm_fits_xor() {
        let (x, y) = xor_data(80);
        let model = Gbdt::fit(&x, &y, GbdtConfig::lightgbm());
        let preds = model.predict_all(&x);
        let correct = preds.iter().zip(&y).filter(|(p, l)| p == l).count();
        assert!(correct as f64 / y.len() as f64 > 0.95, "acc {correct}/{}", y.len());
    }

    #[test]
    fn xgboost_fits_xor() {
        let (x, y) = xor_data(80);
        let model = Gbdt::fit(&x, &y, GbdtConfig::xgboost());
        let preds = model.predict_all(&x);
        let correct = preds.iter().zip(&y).filter(|(p, l)| p == l).count();
        assert!(correct as f64 / y.len() as f64 > 0.95);
    }

    #[test]
    fn probabilities_in_unit_interval_and_ordered() {
        let (x, y) = xor_data(40);
        let model = Gbdt::fit(&x, &y, GbdtConfig::lightgbm());
        for (row, &label) in x.iter().zip(&y) {
            let p = model.predict_proba(row);
            assert!((0.0..=1.0).contains(&p));
            if label {
                assert!(p > 0.5, "positive sample got p = {p}");
            } else {
                assert!(p < 0.5, "negative sample got p = {p}");
            }
        }
    }

    #[test]
    fn all_one_class_predicts_that_class() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![true; 10];
        let model = Gbdt::fit(&x, &y, GbdtConfig::lightgbm());
        assert!(model.predict_proba(&[3.0]) > 0.9);
    }

    #[test]
    fn feature_importance_identifies_informative_feature() {
        // Feature 0 fully determines the label; feature 1 is noise.
        let x: Vec<Vec<f64>> =
            (0..80).map(|i| vec![(i % 2) as f64, ((i * 7) % 13) as f64]).collect();
        let y: Vec<bool> = (0..80).map(|i| i % 2 == 0).collect();
        let m = Gbdt::fit(&x, &y, GbdtConfig { n_trees: 10, ..GbdtConfig::lightgbm() });
        let imp = m.feature_importance(2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.9, "importance {imp:?}");
    }

    #[test]
    fn feature_importance_zero_without_splits() {
        let x: Vec<Vec<f64>> = (0..10).map(|_| vec![1.0]).collect();
        let y = vec![true; 10];
        let m = Gbdt::fit(&x, &y, GbdtConfig::lightgbm());
        assert_eq!(m.feature_importance(1), vec![0.0]);
    }

    #[test]
    fn base_score_matches_class_prior() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 10) as f64]).collect();
        let y: Vec<bool> = (0..100).map(|i| i % 4 == 0).collect(); // 25% positive
        let model = Gbdt::fit(&x, &y, GbdtConfig { n_trees: 0, ..GbdtConfig::lightgbm() });
        let p = model.predict_proba(&[0.0]);
        assert!((p - 0.25).abs() < 1e-9, "prior {p}");
    }
}
