//! Fig. 7 — ROC curves of five classifiers on the calibrated probabilities.
//!
//! After calibration, the weighted probabilities (P_g, P_l) are classified
//! with LightGBM, MLP, random forest, AdaBoost and XGBoost. We report the
//! ROC-AUC of each per account type; the paper's finding is that LightGBM's
//! curve dominates the other four on all account categories.

use dbg4eth::{fit_predict_classifier, run, ClassifierKind};
use nn::metrics::roc_auc;

fn main() {
    println!("== Fig. 7: classifier ROC-AUC on calibrated (P_g, P_l) ==");
    let bench = bench::benchmark();
    let cfg = bench::dbg4eth_config();
    print!("{:<12}", "type");
    for kind in ClassifierKind::ALL {
        print!("{:>14}", kind.name());
    }
    println!();
    let mut lightgbm_wins = 0;
    // One shared encoder/calibration run per account type, fanned out over
    // the four independent datasets; classifiers then compete on the
    // identical calibrated features.
    let outs = par::par_map(bench::threads(), &bench::MAIN_CLASSES, |&class| {
        run(bench.dataset(class), 0.8, &cfg)
    });
    for (class, out) in bench::MAIN_CLASSES.into_iter().zip(&outs) {
        print!("{:<12}", class.name());
        let mut aucs = Vec::new();
        for kind in ClassifierKind::ALL {
            let scores = fit_predict_classifier(
                kind,
                &out.train_features,
                &out.train_labels,
                &out.test_features,
                bench::threads(),
            );
            let auc = roc_auc(&scores, &out.test_labels);
            aucs.push(auc);
            print!("{:>14.4}", auc);
        }
        println!();
        let best = aucs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if (aucs[0] - best).abs() < 1e-9 {
            lightgbm_wins += 1;
        }
    }
    println!();
    println!("LightGBM best-or-tied on {lightgbm_wins}/4 account types (paper: best on all 4)");
    bench::emit_report("fig7");
}
