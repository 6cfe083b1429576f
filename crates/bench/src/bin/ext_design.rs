//! Design-choice ablations for decisions this reproduction made beyond the
//! paper's text (called out in DESIGN.md):
//!
//! 1. centre-embedding concatenation in both encoder read-outs,
//! 2. log-compressed absolute-scale node features vs per-graph z-scoring
//!    vs no features at all.

use dbg4eth::{run, FeatureMode};
use eth_sim::AccountClass;

fn main() {
    println!("== Design ablations (F1) ==");
    let bench = bench::benchmark();
    let base = bench::dbg4eth_config();
    let classes = [AccountClass::Exchange, AccountClass::PhishHack];

    let variants: Vec<(&str, dbg4eth::Dbg4EthConfig)> = vec![
        ("full (default)", base),
        ("w/o centre concat (both)", {
            let mut c = base;
            c.gsg.use_center = false;
            c.ldg.use_center = false;
            c
        }),
        ("w/o centre concat (GSG only)", {
            let mut c = base;
            c.gsg.use_center = false;
            c
        }),
        ("per-graph z-scored features", {
            let mut c = base;
            c.features = FeatureMode::ZScored;
            c
        }),
        ("no node features", {
            let mut c = base;
            c.features = FeatureMode::None;
            c
        }),
    ];

    print!("{:<32}", "variant");
    for class in classes {
        print!("{:>12}", class.name());
    }
    println!();
    for (name, cfg) in &variants {
        print!("{name:<32}");
        for class in classes {
            let out = run(bench.dataset(class), 0.8, cfg);
            print!("{:>12.2}", out.metrics.f1);
        }
        println!();
    }
    println!("\nexpected shape: absolute-scale features and centre concatenation both");
    println!("contribute; z-scoring erases cross-graph scale and costs F1.");
    bench::emit_report("ext_design");
}
