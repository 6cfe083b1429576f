//! Configuration of the end-to-end DBG4ETH pipeline.

use calib::MethodSubset;
use gnn::{AugmentConfig, GsgConfig, LdgConfig};
use tensor::NumericsProfile;

/// Which tabular classifier consumes the calibrated probabilities
/// (Section IV-D and Fig. 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClassifierKind {
    /// LightGBM-style GBDT — the paper's choice.
    LightGbm,
    /// XGBoost-style GBDT.
    XgBoost,
    RandomForest,
    AdaBoost,
    Mlp,
}

impl ClassifierKind {
    pub const ALL: [ClassifierKind; 5] = [
        ClassifierKind::LightGbm,
        ClassifierKind::XgBoost,
        ClassifierKind::RandomForest,
        ClassifierKind::AdaBoost,
        ClassifierKind::Mlp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ClassifierKind::LightGbm => "LightGBM",
            ClassifierKind::XgBoost => "XGBoost",
            ClassifierKind::RandomForest => "RandomForest",
            ClassifierKind::AdaBoost => "AdaBoost",
            ClassifierKind::Mlp => "MLP",
        }
    }
}

/// How subgraph node features are constructed before lowering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeatureMode {
    /// Log-compressed absolute scales (the default; see features crate).
    LogAbsolute,
    /// Per-graph column z-scoring (destroys absolute scales — kept as a
    /// design ablation).
    ZScored,
    /// Constant 1-dim features (the "w/o node feature" setting).
    None,
}

impl FeatureMode {
    /// Input width of both encoders: 15 deep features (Table I), or 1 without.
    pub fn width(self) -> usize {
        match self {
            FeatureMode::LogAbsolute | FeatureMode::ZScored => features::N_FEATURES,
            FeatureMode::None => 1,
        }
    }
}

/// Calibration-stage configuration, including the Table IV ablations.
///
/// `#[non_exhaustive]`: construct via [`Default`] and mutate fields, or let
/// [`Dbg4EthConfig::builder`] carry it — new knobs can then be added without
/// breaking downstream crates.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct CalibrationConfig {
    /// Apply calibration at all (`false` = "w/o calibration").
    pub enabled: bool,
    /// Which methods participate ("w/o Param." / "w/o Non-param.").
    pub subset: MethodSubset,
    /// Weight by ΔECE (`false` = uniform weights, the "w/o Ada." rows).
    pub adaptive: bool,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self { enabled: true, subset: MethodSubset::All, adaptive: true }
    }
}

/// Full pipeline configuration.
///
/// `#[non_exhaustive]`: outside this crate, build one with
/// [`Dbg4EthConfig::builder`] (validated) or start from
/// [`Dbg4EthConfig::default`] / [`Dbg4EthConfig::fast`] and mutate fields.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct Dbg4EthConfig {
    pub gsg: GsgConfig,
    pub ldg: LdgConfig,
    /// Enable the global static branch (`false` = "w/o GSG").
    pub use_gsg: bool,
    /// Enable the local dynamic branch (`false` = "w/o LDG").
    pub use_ldg: bool,
    /// Contrastive-regularisation weight on the GSG branch
    /// (0 disables the augmented-view objective).
    pub contrastive_weight: f32,
    /// Augmentation settings of the two views.
    pub aug1: AugmentConfig,
    pub aug2: AugmentConfig,
    /// Number of LDG time slices `T` (paper: 10).
    pub t_slices: usize,
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    pub calibration: CalibrationConfig,
    pub classifier: ClassifierKind,
    /// Node-feature construction mode.
    pub features: FeatureMode,
    /// Fraction of the training split held out to fit the calibrators and
    /// the final classifier (they must not see the encoder's training fit).
    /// With 0 (the default), the training-split scores are 2-fold
    /// cross-fitted instead (standard stacking practice; see DESIGN.md).
    pub holdout_frac: f64,
    /// Degree of task parallelism across the pipeline: `0` resolves to the
    /// machine's available parallelism, `1` reproduces the historical
    /// serial execution exactly, and any value is overridden by the
    /// `DBG4ETH_THREADS` environment variable. All fan-out is task-level
    /// with fixed per-task seeds and index-ordered collection, so the
    /// pipeline's outputs are bit-identical for every setting.
    pub parallelism: usize,
    pub seed: u64,
}

impl Default for Dbg4EthConfig {
    fn default() -> Self {
        Self {
            gsg: GsgConfig::default(),
            ldg: LdgConfig::default(),
            use_gsg: true,
            use_ldg: true,
            contrastive_weight: 0.2,
            aug1: AugmentConfig::view1(),
            aug2: AugmentConfig::view2(),
            t_slices: 10,
            epochs: 20,
            batch_size: 8,
            lr: 0.005,
            calibration: CalibrationConfig::default(),
            classifier: ClassifierKind::LightGbm,
            features: FeatureMode::LogAbsolute,
            holdout_frac: 0.0,
            parallelism: 0,
            seed: 42,
        }
    }
}

// Upper bounds of the encoder dimensions (see `Dbg4EthConfig::validate`):
// every width (`hidden`, `d_out`, each DiffPool cluster count), the
// GSG's heads per layer and layers, the LDG's `T`, and either head's classes.
const MAX_WIDTH: usize = 512;
const MAX_HEADS: usize = 64;
const MAX_LAYERS: usize = 8;
const MAX_T_SLICES: usize = 64;
const MAX_CLASSES: usize = 256;

/// Why a configuration (or a training fraction) was rejected. Every range
/// the encoder constructors would otherwise assert on is checked up front,
/// so a bad configuration is a typed error instead of a panic deep inside
/// `GsgEncoder::new`.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// `epochs` must be at least 1.
    Epochs(usize),
    /// `batch_size` must be at least 1.
    BatchSize(usize),
    /// `lr` must be finite and positive.
    LearningRate(f32),
    /// `contrastive_weight` must be finite and non-negative.
    ContrastiveWeight(f32),
    /// `holdout_frac` must lie in `[0, 1)`.
    HoldoutFrac(f64),
    /// A training fraction must lie strictly between 0 and 1.
    TrainFrac(f64),
    /// Both encoder branches are disabled.
    NoBranch,
    /// The GSG sub-configuration is out of range.
    Gsg(String),
    /// The LDG sub-configuration is out of range.
    Ldg(String),
    /// `t_slices` exceeds its upper bound (lowering builds one adjacency
    /// per slice for every account, whichever branches are enabled).
    TSlices(usize),
    /// [`crate::Session::train`] persists the stacked classifier, which
    /// only the GBDT kinds (LightGBM, XGBoost) can be; the other
    /// classifiers run through [`crate::run`].
    NotPersistable(ClassifierKind),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Epochs(v) => write!(f, "epochs must be >= 1 (got {v})"),
            ConfigError::BatchSize(v) => write!(f, "batch_size must be >= 1 (got {v})"),
            ConfigError::LearningRate(v) => {
                write!(f, "lr must be finite and positive (got {v})")
            }
            ConfigError::ContrastiveWeight(v) => {
                write!(f, "contrastive_weight must be finite and non-negative (got {v})")
            }
            ConfigError::HoldoutFrac(v) => {
                write!(f, "holdout_frac must lie in [0, 1) (got {v})")
            }
            ConfigError::TrainFrac(v) => {
                write!(f, "train_frac must lie strictly between 0 and 1 (got {v})")
            }
            ConfigError::NoBranch => write!(f, "config enables no encoder branch"),
            ConfigError::Gsg(m) => write!(f, "GSG {m}"),
            ConfigError::Ldg(m) => write!(f, "LDG {m}"),
            ConfigError::TSlices(v) => {
                write!(f, "t_slices must be at most {MAX_T_SLICES} (got {v})")
            }
            ConfigError::NotPersistable(k) => write!(
                f,
                "classifier {} cannot be persisted; train a model with LightGBM or XGBoost",
                k.name()
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`Dbg4EthConfig`].
///
/// ```no_run
/// use dbg4eth::{ClassifierKind, Dbg4EthConfig};
/// let cfg = Dbg4EthConfig::builder()
///     .epochs(12)
///     .classifier(ClassifierKind::LightGbm)
///     .build()
///     .expect("valid configuration");
/// ```
#[derive(Clone, Debug)]
pub struct Dbg4EthConfigBuilder {
    config: Dbg4EthConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            #[must_use]
            pub fn $field(mut self, $field: $ty) -> Self {
                self.config.$field = $field;
                self
            }
        )*
    };
}

impl Dbg4EthConfigBuilder {
    builder_setters! {
        /// GSG encoder sub-configuration.
        gsg: GsgConfig,
        /// LDG encoder sub-configuration.
        ldg: LdgConfig,
        /// Enable the global static branch (`false` = "w/o GSG").
        use_gsg: bool,
        /// Enable the local dynamic branch (`false` = "w/o LDG").
        use_ldg: bool,
        /// Contrastive-regularisation weight on the GSG branch.
        contrastive_weight: f32,
        /// Augmentation settings of the first contrastive view.
        aug1: AugmentConfig,
        /// Augmentation settings of the second contrastive view.
        aug2: AugmentConfig,
        /// Number of LDG time slices `T`.
        t_slices: usize,
        /// Training epochs per encoder branch.
        epochs: usize,
        /// Mini-batch size.
        batch_size: usize,
        /// Adam learning rate.
        lr: f32,
        /// Calibration-stage configuration.
        calibration: CalibrationConfig,
        /// Which tabular classifier consumes the calibrated probabilities.
        classifier: ClassifierKind,
        /// Node-feature construction mode.
        features: FeatureMode,
        /// Fraction of the training split held out for calibration
        /// (0 = cross-fit the training-split scores).
        holdout_frac: f64,
        /// Degree of task parallelism (0 = auto-detect).
        parallelism: usize,
        /// Seed of every random stage.
        seed: u64,
    }

    /// Validate the accumulated configuration and return it.
    pub fn build(self) -> Result<Dbg4EthConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

impl Dbg4EthConfig {
    /// The resolved worker-thread count for this run: `parallelism`
    /// after applying the `DBG4ETH_THREADS` override and auto-detection.
    pub fn threads(&self) -> usize {
        par::resolve_threads(self.parallelism)
    }

    /// The numerics contract every run keeps: always
    /// [`NumericsProfile::Strict`], so reports can name it.
    pub fn numerics_profile(&self) -> NumericsProfile {
        NumericsProfile::Strict
    }

    /// A validating builder starting from [`Dbg4EthConfig::default`].
    #[must_use]
    pub fn builder() -> Dbg4EthConfigBuilder {
        Dbg4EthConfigBuilder { config: Self::default() }
    }

    /// Continue building from this configuration (e.g. from
    /// [`Dbg4EthConfig::fast`]).
    #[must_use]
    pub fn to_builder(self) -> Dbg4EthConfigBuilder {
        Dbg4EthConfigBuilder { config: self }
    }

    /// Reject out-of-range settings with a typed [`ConfigError`]. Called by
    /// [`Dbg4EthConfigBuilder::build`] and when a persisted configuration is
    /// reloaded.
    ///
    /// The encoder dimensions have upper bounds as well as lower ones —
    /// widths and cluster counts at most 512, at most 8 GSG layers of at
    /// most 64 heads, `t_slices` at most 64 and at most 256 classes — so
    /// no accepted configuration builds an encoder of more than 4 Mi
    /// parameters (16 MiB of `f32` weights) per branch. A tampered but
    /// checksummed container therefore cannot make the loader allocate
    /// without bound.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.epochs == 0 {
            return Err(ConfigError::Epochs(self.epochs));
        }
        if self.batch_size == 0 {
            return Err(ConfigError::BatchSize(self.batch_size));
        }
        if !self.lr.is_finite() || self.lr <= 0.0 {
            return Err(ConfigError::LearningRate(self.lr));
        }
        if !self.contrastive_weight.is_finite() || self.contrastive_weight < 0.0 {
            return Err(ConfigError::ContrastiveWeight(self.contrastive_weight));
        }
        if !(0.0..1.0).contains(&self.holdout_frac) {
            return Err(ConfigError::HoldoutFrac(self.holdout_frac));
        }
        if !self.use_gsg && !self.use_ldg {
            return Err(ConfigError::NoBranch);
        }
        if self.t_slices > MAX_T_SLICES {
            return Err(ConfigError::TSlices(self.t_slices));
        }
        if self.use_gsg {
            let g = &self.gsg;
            if g.hidden == 0 || g.layers == 0 || g.d_out == 0 {
                return Err(ConfigError::Gsg(format!(
                    "dimensions must be positive (hidden {}, layers {}, d_out {})",
                    g.hidden, g.layers, g.d_out
                )));
            }
            if [g.hidden, g.d_out].into_iter().any(|w| w > MAX_WIDTH)
                || g.layers > MAX_LAYERS
                || g.heads > MAX_HEADS
                || g.n_classes > MAX_CLASSES
            {
                return Err(ConfigError::Gsg(format!(
                    "dimensions exceed their bounds (hidden {}, d_out {} ≤ {MAX_WIDTH}; \
                     layers {} ≤ {MAX_LAYERS}; heads {} ≤ {MAX_HEADS}; \
                     n_classes {} ≤ {MAX_CLASSES})",
                    g.hidden, g.d_out, g.layers, g.heads, g.n_classes
                )));
            }
            if g.heads == 0 || !g.hidden.is_multiple_of(g.heads) {
                return Err(ConfigError::Gsg(format!(
                    "hidden {} not divisible by heads {}",
                    g.hidden, g.heads
                )));
            }
            if g.n_classes < 2 {
                return Err(ConfigError::Gsg(format!("n_classes {} < 2", g.n_classes)));
            }
        }
        if self.use_ldg {
            let l = &self.ldg;
            if l.hidden == 0 || l.d_out == 0 || self.t_slices == 0 {
                return Err(ConfigError::Ldg(format!(
                    "dimensions must be positive (hidden {}, d_out {}, t_slices {})",
                    l.hidden, l.d_out, self.t_slices
                )));
            }
            if !(1..=l.pool_clusters.len()).contains(&l.pool_layers) {
                return Err(ConfigError::Ldg(format!(
                    "pool_layers {} outside 1..={}",
                    l.pool_layers,
                    l.pool_clusters.len()
                )));
            }
            if [l.hidden, l.d_out].iter().chain(&l.pool_clusters).any(|&w| w > MAX_WIDTH)
                || l.n_classes > MAX_CLASSES
            {
                return Err(ConfigError::Ldg(format!(
                    "dimensions exceed their bounds (hidden {}, d_out {}, \
                     pool_clusters {:?} ≤ {MAX_WIDTH}; n_classes {} ≤ {MAX_CLASSES})",
                    l.hidden, l.d_out, l.pool_clusters, l.n_classes
                )));
            }
            if l.pool_clusters.contains(&0) {
                return Err(ConfigError::Ldg(format!(
                    "pool_clusters {:?} contain zero",
                    l.pool_clusters
                )));
            }
            if l.n_classes < 2 {
                return Err(ConfigError::Ldg(format!("n_classes {} < 2", l.n_classes)));
            }
        }
        Ok(())
    }

    /// A fast, reduced configuration for tests and CI.
    pub fn fast() -> Self {
        Self {
            gsg: GsgConfig { hidden: 32, heads: 2, d_out: 16, ..GsgConfig::default() },
            ldg: LdgConfig {
                hidden: 32,
                d_out: 16,
                pool_clusters: [8, 4, 1],
                ..LdgConfig::default()
            },
            t_slices: 5,
            epochs: 6,
            contrastive_weight: 0.1,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_default_config() {
        let built = Dbg4EthConfig::builder().build().unwrap();
        assert_eq!(format!("{built:?}"), format!("{:?}", Dbg4EthConfig::default()));
    }

    #[test]
    fn builder_applies_every_setter_it_is_given() {
        let cfg = Dbg4EthConfig::builder()
            .epochs(12)
            .batch_size(4)
            .lr(0.01)
            .t_slices(6)
            .classifier(ClassifierKind::XgBoost)
            .holdout_frac(0.25)
            .parallelism(2)
            .seed(9)
            .build()
            .unwrap();
        assert_eq!(cfg.epochs, 12);
        assert_eq!(cfg.batch_size, 4);
        assert_eq!(cfg.lr, 0.01);
        assert_eq!(cfg.t_slices, 6);
        assert_eq!(cfg.classifier, ClassifierKind::XgBoost);
        assert_eq!(cfg.holdout_frac, 0.25);
        assert_eq!(cfg.parallelism, 2);
        assert_eq!(cfg.seed, 9);
    }

    #[test]
    fn numerics_defaults_to_strict() {
        assert_eq!(Dbg4EthConfig::default().numerics_profile(), NumericsProfile::Strict);
        assert_eq!(Dbg4EthConfig::fast().numerics_profile(), NumericsProfile::Strict);
    }

    #[test]
    fn builder_rejects_out_of_range_settings() {
        assert!(matches!(Dbg4EthConfig::builder().epochs(0).build(), Err(ConfigError::Epochs(0))));
        assert!(matches!(
            Dbg4EthConfig::builder().batch_size(0).build(),
            Err(ConfigError::BatchSize(0))
        ));
        assert!(matches!(
            Dbg4EthConfig::builder().lr(-0.5).build(),
            Err(ConfigError::LearningRate(_))
        ));
        assert!(matches!(
            Dbg4EthConfig::builder().holdout_frac(1.0).build(),
            Err(ConfigError::HoldoutFrac(_))
        ));
        assert!(matches!(
            Dbg4EthConfig::builder().use_gsg(false).use_ldg(false).build(),
            Err(ConfigError::NoBranch)
        ));
        let bad_heads = GsgConfig { hidden: 32, heads: 3, ..GsgConfig::default() };
        assert!(matches!(
            Dbg4EthConfig::builder().gsg(bad_heads).build(),
            Err(ConfigError::Gsg(_))
        ));
        let bad_pool = LdgConfig { pool_layers: 0, ..LdgConfig::default() };
        assert!(matches!(Dbg4EthConfig::builder().ldg(bad_pool).build(), Err(ConfigError::Ldg(_))));
    }

    /// The largest configuration `validate` accepts builds encoders within
    /// the bound its doc states, and one step past any bound is refused.
    #[test]
    fn largest_accepted_encoders_stay_within_the_stated_bound() {
        use crate::branch::{Branch, Encoder};
        use nn::ParamStore;
        use rand::{rngs::StdRng, SeedableRng};
        let c = Dbg4EthConfig {
            gsg: GsgConfig {
                hidden: MAX_WIDTH,
                layers: MAX_LAYERS,
                heads: MAX_HEADS,
                d_out: MAX_WIDTH,
                n_classes: MAX_CLASSES,
                use_center: true,
            },
            ldg: LdgConfig {
                hidden: MAX_WIDTH,
                pool_clusters: [MAX_WIDTH; 3],
                pool_layers: 3,
                d_out: MAX_WIDTH,
                n_classes: MAX_CLASSES,
                use_center: true,
            },
            t_slices: MAX_T_SLICES,
            ..Dbg4EthConfig::default()
        };
        c.validate().expect("the largest accepted configuration");
        for branch in Branch::ALL {
            let mut store = ParamStore::new();
            Encoder::new(branch, &c, &mut store, &mut StdRng::seed_from_u64(0));
            assert!(store.num_scalars() <= 4 << 20, "{branch:?}: {}", store.num_scalars());
        }

        let past: [fn(&mut Dbg4EthConfig); 10] = [
            |c| c.gsg.hidden += MAX_HEADS,
            |c| c.gsg.d_out += 1,
            |c| c.gsg.layers += 1,
            |c| c.gsg.heads *= 2,
            |c| c.gsg.n_classes += 1,
            |c| c.ldg.hidden += 1,
            |c| c.ldg.d_out += 1,
            |c| c.ldg.pool_clusters[2] += 1,
            |c| c.ldg.n_classes += 1,
            |c| c.t_slices += 1,
        ];
        for (k, step) in past.iter().enumerate() {
            let mut over = c;
            step(&mut over);
            assert!(over.validate().is_err(), "step {k} past the bounds was accepted");
        }
    }

    #[test]
    fn to_builder_continues_from_an_existing_config() {
        let cfg = Dbg4EthConfig::fast().to_builder().epochs(3).build().unwrap();
        assert_eq!(cfg.epochs, 3);
        assert_eq!(cfg.t_slices, Dbg4EthConfig::fast().t_slices);
    }
}
