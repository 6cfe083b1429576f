//! `model-io` (de)serialisation for the fitted GBDT forest.
//!
//! Tree structure (node kinds, child indices, features) and every `f64`
//! (thresholds, leaf values, base score, hyper-parameters) are stored as
//! exact bit patterns: a reloaded forest routes every row through the same
//! leaves and sums the same margins, bit for bit. Malformed payloads
//! surface as typed [`ModelIoError`]s — child indices are range-checked so
//! a corrupted tree can never send `predict` out of bounds or into a cycle.

use crate::gbdt::{Gbdt, GbdtConfig};
use crate::tree::{Growth, Node, RegressionTree, TreeConfig};
use model_io::{ModelIoError, SectionReader, SectionWriter};

fn write_tree_config(cfg: &TreeConfig, s: &mut SectionWriter) {
    match cfg.growth {
        Growth::LeafWise { max_leaves } => {
            s.put_u8(0);
            s.put_usize(max_leaves);
        }
        Growth::DepthWise { max_depth } => {
            s.put_u8(1);
            s.put_usize(max_depth);
        }
    }
    s.put_usize(cfg.min_samples_leaf);
    s.put_f64(cfg.lambda);
    s.put_f64(cfg.min_gain);
}

/// Every stored float multiplies into (or gates) a margin sum; a NaN or
/// infinity loaded from a damaged payload must be a typed error, not a
/// silently poisoned classifier.
fn check_finite(v: f64, what: &str) -> Result<(), ModelIoError> {
    if v.is_finite() {
        Ok(())
    } else {
        Err(ModelIoError::Corrupt { context: format!("{what} is non-finite ({v})") })
    }
}

fn read_tree_config(s: &mut SectionReader) -> Result<TreeConfig, ModelIoError> {
    let growth = match s.get_u8()? {
        0 => Growth::LeafWise { max_leaves: s.get_usize()? },
        1 => Growth::DepthWise { max_depth: s.get_usize()? },
        v => {
            return Err(ModelIoError::Corrupt { context: format!("unknown growth policy tag {v}") })
        }
    };
    let cfg = TreeConfig {
        growth,
        min_samples_leaf: s.get_usize()?,
        lambda: s.get_f64()?,
        min_gain: s.get_f64()?,
    };
    check_finite(cfg.lambda, "tree lambda")?;
    check_finite(cfg.min_gain, "tree min_gain")?;
    Ok(cfg)
}

impl RegressionTree {
    /// Append this tree's node array (flat, child-index form).
    pub fn write(&self, s: &mut SectionWriter) {
        s.put_usize(self.nodes.len());
        for node in &self.nodes {
            match node {
                Node::Leaf { value } => {
                    s.put_u8(0);
                    s.put_f64(*value);
                }
                Node::Split { feature, threshold, gain, left, right } => {
                    s.put_u8(1);
                    s.put_usize(*feature);
                    s.put_f64(*threshold);
                    s.put_f64(*gain);
                    s.put_usize(*left);
                    s.put_usize(*right);
                }
            }
        }
    }

    /// Read a tree written by [`RegressionTree::write`], validating that
    /// every split's children point strictly forward in the node array (the
    /// shape `fit` produces), which rules out cycles and out-of-bounds
    /// walks in `predict`.
    pub fn read(s: &mut SectionReader) -> Result<Self, ModelIoError> {
        let n = s.get_usize()?;
        if n == 0 {
            return Err(ModelIoError::Corrupt { context: "tree with zero nodes".to_string() });
        }
        // Each node costs at least 9 payload bytes (tag + one f64).
        if n.saturating_mul(9) > s.remaining() {
            return Err(ModelIoError::Truncated { context: "tree node array" });
        }
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            nodes.push(match s.get_u8()? {
                0 => {
                    let value = s.get_f64()?;
                    check_finite(value, "leaf value")?;
                    Node::Leaf { value }
                }
                1 => {
                    let feature = s.get_usize()?;
                    let threshold = s.get_f64()?;
                    let gain = s.get_f64()?;
                    // A NaN threshold silently routes every row right
                    // (NaN comparisons are false); a NaN leaf or gain
                    // poisons margins and importances. Reject them all.
                    check_finite(threshold, "split threshold")?;
                    check_finite(gain, "split gain")?;
                    let (left, right) = (s.get_usize()?, s.get_usize()?);
                    if left <= i || right <= i || left >= n || right >= n {
                        return Err(ModelIoError::Corrupt {
                            context: format!(
                                "tree node {i} has children ({left}, {right}) outside ({i}, {n})"
                            ),
                        });
                    }
                    Node::Split { feature, threshold, gain, left, right }
                }
                v => {
                    return Err(ModelIoError::Corrupt {
                        context: format!("unknown tree node tag {v}"),
                    })
                }
            });
        }
        Ok(Self { nodes })
    }
}

impl Gbdt {
    /// Append the full fitted classifier: hyper-parameters, base score and
    /// every tree.
    pub fn write(&self, s: &mut SectionWriter) {
        s.put_usize(self.config.n_trees);
        s.put_f64(self.config.learning_rate);
        write_tree_config(&self.config.tree, s);
        // Retired thread-count slot, kept so the container layout is
        // unchanged: training is serial, so it always reads 1.
        s.put_usize(1);
        s.put_f64(self.base_score);
        s.put_usize(self.trees.len());
        for tree in &self.trees {
            tree.write(s);
        }
    }

    /// Read a classifier written by [`Gbdt::write`].
    pub fn read(s: &mut SectionReader) -> Result<Self, ModelIoError> {
        let n_trees = s.get_usize()?;
        let learning_rate = s.get_f64()?;
        check_finite(learning_rate, "learning rate")?;
        let tree = read_tree_config(s)?;
        s.get_usize()?; // retired thread-count slot
        let config = GbdtConfig { n_trees, learning_rate, tree };
        let base_score = s.get_f64()?;
        check_finite(base_score, "base score")?;
        let count = s.get_usize()?;
        if count > s.remaining() {
            return Err(ModelIoError::Truncated { context: "forest tree count" });
        }
        let mut trees = Vec::with_capacity(count);
        for _ in 0..count {
            trees.push(RegressionTree::read(s)?);
        }
        Ok(Self { config, base_score, trees })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use model_io::{ModelReader, ModelWriter};

    fn xor_model(config: GbdtConfig) -> (Vec<Vec<f64>>, Gbdt) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..80 {
            let a = (i % 2) as f64;
            let b = ((i / 2) % 2) as f64;
            let j = (i as f64 * 0.618).fract() * 0.2;
            x.push(vec![a + j, b - j]);
            y.push((a as i32 ^ b as i32) == 1);
        }
        let model = Gbdt::fit(&x, &y, config);
        (x, model)
    }

    fn round_trip(model: &Gbdt) -> Gbdt {
        let mut w = ModelWriter::new();
        let mut sec = SectionWriter::new();
        model.write(&mut sec);
        w.push("gbdt", sec);
        let r = ModelReader::from_bytes(&w.to_bytes()).unwrap();
        let mut sec = r.section("gbdt").unwrap();
        let loaded = Gbdt::read(&mut sec).unwrap();
        sec.expect_end("gbdt").unwrap();
        loaded
    }

    #[test]
    fn forest_round_trips_bit_exactly() {
        for config in [GbdtConfig::lightgbm(), GbdtConfig::xgboost()] {
            let (x, model) = xor_model(config);
            let loaded = round_trip(&model);
            let a = model.predict_proba_all(&x);
            let b = loaded.predict_proba_all(&x);
            let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b));
            assert_eq!(loaded.config.n_trees, model.config.n_trees);
            assert_eq!(loaded.feature_importance(2), model.feature_importance(2));
        }
    }

    #[test]
    fn backward_child_pointer_is_rejected() {
        let mut sec = SectionWriter::new();
        sec.put_usize(2);
        sec.put_u8(1); // split at node 0...
        sec.put_usize(0);
        sec.put_f64(0.5);
        sec.put_f64(1.0);
        sec.put_usize(0); // ...whose left child points back at itself
        sec.put_usize(1);
        sec.put_u8(0);
        sec.put_f64(0.1);
        let mut w = ModelWriter::new();
        w.push("t", sec);
        let r = ModelReader::from_bytes(&w.to_bytes()).unwrap();
        assert!(matches!(
            RegressionTree::read(&mut r.section("t").unwrap()),
            Err(ModelIoError::Corrupt { .. })
        ));
    }

    #[test]
    fn non_finite_tree_floats_are_rejected() {
        let tree = |leaf: f64, threshold: f64| {
            let mut sec = SectionWriter::new();
            sec.put_usize(3);
            sec.put_u8(1);
            sec.put_usize(0);
            sec.put_f64(threshold);
            sec.put_f64(1.0);
            sec.put_usize(1);
            sec.put_usize(2);
            sec.put_u8(0);
            sec.put_f64(leaf);
            sec.put_u8(0);
            sec.put_f64(0.2);
            let mut w = ModelWriter::new();
            w.push("t", sec);
            let bytes = w.to_bytes();
            let r = ModelReader::from_bytes(&bytes).unwrap();
            RegressionTree::read(&mut r.section("t").unwrap()).map(|_| ())
        };
        assert!(tree(0.1, 0.5).is_ok(), "the all-finite control tree must load");
        // A NaN threshold routes every row right (NaN comparisons are
        // false) — silent misclassification, so it must be typed.
        assert!(matches!(tree(0.1, f64::NAN), Err(ModelIoError::Corrupt { .. })));
        assert!(matches!(tree(f64::INFINITY, 0.5), Err(ModelIoError::Corrupt { .. })));
    }

    #[test]
    fn non_finite_forest_scalars_are_rejected() {
        let (_, model) = xor_model(GbdtConfig { n_trees: 2, ..GbdtConfig::lightgbm() });
        let serialise = |lr: f64, base: f64| {
            let mut sec = SectionWriter::new();
            sec.put_usize(model.config.n_trees);
            sec.put_f64(lr);
            write_tree_config(&model.config.tree, &mut sec);
            sec.put_usize(1);
            sec.put_f64(base);
            sec.put_usize(model.trees.len());
            for tree in &model.trees {
                tree.write(&mut sec);
            }
            let mut w = ModelWriter::new();
            w.push("g", sec);
            let bytes = w.to_bytes();
            let r = ModelReader::from_bytes(&bytes).unwrap();
            Gbdt::read(&mut r.section("g").unwrap()).map(|_| ())
        };
        assert!(serialise(0.1, 0.0).is_ok());
        assert!(matches!(serialise(f64::NAN, 0.0), Err(ModelIoError::Corrupt { .. })));
        assert!(matches!(serialise(0.1, f64::NEG_INFINITY), Err(ModelIoError::Corrupt { .. })));
    }

    #[test]
    fn empty_tree_is_rejected() {
        let mut sec = SectionWriter::new();
        sec.put_usize(0);
        let mut w = ModelWriter::new();
        w.push("t", sec);
        let r = ModelReader::from_bytes(&w.to_bytes()).unwrap();
        assert!(matches!(
            RegressionTree::read(&mut r.section("t").unwrap()),
            Err(ModelIoError::Corrupt { .. })
        ));
    }
}
