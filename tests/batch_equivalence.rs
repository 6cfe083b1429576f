//! Property tests of the batched block-diagonal encode path: batch(N) ≡
//! N × batch(1).
//!
//! Each encoder has one forward, `forward_batch`, over a packed batch
//! ([`gnn::GsgBatch`] / [`gnn::LdgBatch`]). The trainer packs a whole
//! mini-batch into one block-diagonal adjacency; scoring packs each account
//! alone. The fusion is a pure re-orchestration: these properties pin,
//! over arbitrary mixes of subgraph sizes and shapes, that
//!
//! - every batched output row (logits, embeddings, projections) is
//!   bit-identical to the output of the same graph packed alone, and
//! - the gradient of the loss with respect to the packed input-feature leaf
//!   decomposes row-for-row into the input gradients of the one-graph
//!   packs.
//!
//! A final end-to-end check runs the full pipeline at 1 and 8 worker threads
//! and requires bit-identical probabilities, so the batched encode stays
//! independent of the task-parallel fan-out around it.

use eth_graph::{AccountKind, LocalTx, Subgraph};
use eth_sim::{AccountClass, Benchmark, DatasetScale};
use features::N_FEATURES;
use gnn::{
    GraphTensors, GsgBatch, GsgConfig, GsgEncoder, GsgItem, LdgBatch, LdgConfig, LdgEncoder,
};
use nn::{Ctx, ParamStore};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tensor::{Tape, Tensor, Var};

const T_SLICES: usize = 4;

/// An arbitrary small subgraph lowered to tensors: 2-8 nodes, 1-24
/// transactions with arbitrary endpoints, values, timestamps and call flags,
/// and a mix of EOA/contract nodes.
fn arb_graph() -> impl Strategy<Value = GraphTensors> {
    (2usize..9)
        .prop_flat_map(|n| {
            (
                Just(n),
                prop::collection::vec(
                    (0..n, 0..n, 0.01f64..50.0, 0u64..1_000_000, any::<bool>()),
                    1..25,
                ),
            )
        })
        .prop_map(|(n, raw)| {
            let txs = raw
                .into_iter()
                .map(|(src, dst, value, timestamp, contract_call)| LocalTx {
                    src,
                    dst,
                    value,
                    timestamp,
                    fee: 0.0003,
                    contract_call,
                })
                .collect();
            let g = Subgraph::from_parts(
                (0..n).collect(),
                (0..n)
                    .map(|i| if i % 3 == 2 { AccountKind::Contract } else { AccountKind::Eoa })
                    .collect(),
                txs,
                Some(n % 2),
            );
            GraphTensors::from_subgraph(&g, T_SLICES)
        })
}

fn arb_batch() -> impl Strategy<Value = Vec<GraphTensors>> {
    prop::collection::vec(arb_graph(), 1..7)
}

fn row_bits(t: &Tensor) -> Vec<Vec<u32>> {
    let (r, c) = t.shape();
    (0..r).map(|i| (0..c).map(|j| t.data()[i * c + j].to_bits()).collect()).collect()
}

fn gsg_encoder(seed: u64) -> (ParamStore, GsgEncoder) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let cfg = GsgConfig { hidden: 8, d_out: 4, ..Default::default() };
    let enc = GsgEncoder::new(&mut store, &mut rng, N_FEATURES, cfg);
    (store, enc)
}

fn ldg_encoder(seed: u64) -> (ParamStore, LdgEncoder) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let cfg = LdgConfig { hidden: 8, d_out: 4, pool_clusters: [6, 3, 1], ..Default::default() };
    let enc = LdgEncoder::new(&mut store, &mut rng, N_FEATURES, T_SLICES, cfg);
    (store, enc)
}

/// Per-graph bit patterns of (logits, embedding, projection) /
/// (logits, embedding) collected from one-graph packs.
type RowBits3 = (Vec<Vec<u32>>, Vec<Vec<u32>>, Vec<Vec<u32>>);
type RowBits2 = (Vec<Vec<u32>>, Vec<Vec<u32>>);

fn gsg_one(g: &GraphTensors) -> GsgBatch {
    GsgBatch::pack([GsgItem::from(g)])
}

fn ldg_one(g: &GraphTensors) -> LdgBatch {
    LdgBatch::pack(&[g], T_SLICES)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// GSG: every batched output row is bit-identical to the same graph
    /// packed alone, for arbitrary mixes of graph shapes.
    #[test]
    fn gsg_batched_scores_match_per_account(graphs in arb_batch(), seed in any::<u64>()) {
        let (store, enc) = gsg_encoder(seed);
        // one-graph packs, one fresh tape per graph, as serving does
        let mut per: Vec<RowBits3> = Vec::new();
        for g in &graphs {
            let mut tape = Tape::new();
            let mut ctx = Ctx::new(&store);
            let o = enc.forward_batch(&mut tape, &mut ctx, &store, &gsg_one(g));
            per.push((
                row_bits(tape.value(o.logits)),
                row_bits(tape.value(o.embedding)),
                row_bits(tape.value(o.projection)),
            ));
        }
        let mut tape = Tape::new();
        let mut ctx = Ctx::new(&store);
        let batch = GsgBatch::pack(graphs.iter().map(GsgItem::from));
        let o = enc.forward_batch(&mut tape, &mut ctx, &store, &batch);
        let logits = row_bits(tape.value(o.logits));
        let emb = row_bits(tape.value(o.embedding));
        let proj = row_bits(tape.value(o.projection));
        for (g, (pl, pe, pp)) in per.iter().enumerate() {
            prop_assert_eq!(&logits[g], &pl[0], "GSG logits drifted for graph {}", g);
            prop_assert_eq!(&emb[g], &pe[0], "GSG embedding drifted for graph {}", g);
            prop_assert_eq!(&proj[g], &pp[0], "GSG projection drifted for graph {}", g);
        }
    }

    /// LDG: batched logits and embeddings are bit-identical to each graph
    /// packed alone, including graphs whose transaction span leaves some
    /// time slices empty (the packer repeats each graph's last adjacency).
    #[test]
    fn ldg_batched_scores_match_per_account(graphs in arb_batch(), seed in any::<u64>()) {
        let (store, enc) = ldg_encoder(seed);
        let mut per: Vec<RowBits2> = Vec::new();
        for g in &graphs {
            let mut tape = Tape::new();
            let mut ctx = Ctx::new(&store);
            let o = enc.forward_batch(&mut tape, &mut ctx, &store, &ldg_one(g));
            per.push((row_bits(tape.value(o.logits)), row_bits(tape.value(o.embedding))));
        }
        let refs: Vec<&GraphTensors> = graphs.iter().collect();
        let mut tape = Tape::new();
        let mut ctx = Ctx::new(&store);
        let batch = LdgBatch::pack(&refs, T_SLICES);
        let o = enc.forward_batch(&mut tape, &mut ctx, &store, &batch);
        let logits = row_bits(tape.value(o.logits));
        let emb = row_bits(tape.value(o.embedding));
        for (g, (pl, pe)) in per.iter().enumerate() {
            prop_assert_eq!(&logits[g], &pl[0], "LDG logits drifted for graph {}", g);
            prop_assert_eq!(&emb[g], &pe[0], "LDG embedding drifted for graph {}", g);
        }
    }

    /// GSG: the gradient on the packed input leaf decomposes exactly into
    /// the input gradients of the one-graph packs (same loss, same
    /// accumulation bits).
    #[test]
    fn gsg_batched_input_gradients_decompose(graphs in arb_batch(), seed in any::<u64>()) {
        let (store, enc) = gsg_encoder(seed);
        let targets: Vec<usize> = graphs.iter().map(|g| g.n % 2).collect();
        // one-graph packs with their own leaves, shared tape, loss over the
        // concatenated logits
        let per: Vec<u32> = {
            let mut tape = Tape::new();
            let mut ctx = Ctx::new(&store);
            let mut leaves = Vec::new();
            let mut logits: Option<Var> = None;
            for g in &graphs {
                let one = gsg_one(g);
                let xg = tape.leaf(one.x.clone());
                leaves.push(xg);
                let o = enc.forward_batch_with_x(&mut tape, &mut ctx, &store, &one, xg);
                logits = Some(match logits {
                    None => o.logits,
                    Some(acc) => tape.concat_rows(acc, o.logits),
                });
            }
            let loss = tape.cross_entropy(logits.unwrap(), Arc::new(targets.clone()));
            tape.backward(loss);
            leaves
                .iter()
                .flat_map(|&l| {
                    tape.grad(l).expect("one-graph x grad").data().iter().map(|v| v.to_bits())
                })
                .collect()
        };
        let mut tape = Tape::new();
        let mut ctx = Ctx::new(&store);
        let batch = GsgBatch::pack(graphs.iter().map(GsgItem::from));
        let xv = tape.leaf(batch.x.clone());
        let o = enc.forward_batch_with_x(&mut tape, &mut ctx, &store, &batch, xv);
        let loss = tape.cross_entropy(o.logits, Arc::new(targets));
        tape.backward(loss);
        let got: Vec<u32> =
            tape.grad(xv).expect("batched x grad").data().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, per, "GSG input gradients do not decompose bitwise");
    }

    /// LDG: same input-gradient decomposition property.
    #[test]
    fn ldg_batched_input_gradients_decompose(graphs in arb_batch(), seed in any::<u64>()) {
        let (store, enc) = ldg_encoder(seed);
        let targets: Vec<usize> = graphs.iter().map(|g| g.n % 2).collect();
        let per: Vec<u32> = {
            let mut tape = Tape::new();
            let mut ctx = Ctx::new(&store);
            let mut leaves = Vec::new();
            let mut logits: Option<Var> = None;
            for g in &graphs {
                let one = ldg_one(g);
                let xg = tape.leaf(one.x.clone());
                leaves.push(xg);
                let o = enc.forward_batch_with_x(&mut tape, &mut ctx, &store, &one, xg);
                logits = Some(match logits {
                    None => o.logits,
                    Some(acc) => tape.concat_rows(acc, o.logits),
                });
            }
            let loss = tape.cross_entropy(logits.unwrap(), Arc::new(targets.clone()));
            tape.backward(loss);
            leaves
                .iter()
                .flat_map(|&l| {
                    tape.grad(l).expect("one-graph x grad").data().iter().map(|v| v.to_bits())
                })
                .collect()
        };
        let refs: Vec<&GraphTensors> = graphs.iter().collect();
        let mut tape = Tape::new();
        let mut ctx = Ctx::new(&store);
        let batch = LdgBatch::pack(&refs, T_SLICES);
        let xv = tape.leaf(batch.x.clone());
        let o = enc.forward_batch_with_x(&mut tape, &mut ctx, &store, &batch, xv);
        let loss = tape.cross_entropy(o.logits, Arc::new(targets));
        tape.backward(loss);
        let got: Vec<u32> =
            tape.grad(xv).expect("batched x grad").data().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, per, "LDG input gradients do not decompose bitwise");
    }
}

/// The batched encode is independent of the pipeline's task-parallel fan-out:
/// training and serving at 1 and 8 worker threads produce bit-identical
/// probabilities under the Strict profile.
#[test]
fn batched_pipeline_is_thread_count_invariant() {
    use dbg4eth::{Dbg4EthConfig, InferOptions, Session};
    use eth_graph::SamplerConfig;

    let scale =
        DatasetScale { exchange: 8, ico_wallet: 0, mining: 0, phish_hack: 0, bridge: 0, defi: 0 };
    let bench = Benchmark::generate(scale, SamplerConfig::new(10, 2), 20);
    let dataset = bench.dataset(AccountClass::Exchange);

    let mut cfg = Dbg4EthConfig::fast();
    cfg.epochs = 2;
    cfg.gsg.hidden = 16;
    cfg.gsg.d_out = 8;
    cfg.ldg.hidden = 16;
    cfg.ldg.d_out = 8;
    cfg.ldg.pool_clusters = [6, 3, 1];
    cfg.t_slices = T_SLICES;

    let mut probs = Vec::new();
    for threads in [1usize, 8] {
        cfg.parallelism = threads;
        let (session, _) = Session::train(dataset, 0.7, &cfg).expect("train");
        let (_, test_idx) = dataset.split(0.7, cfg.seed);
        let accounts: Vec<Subgraph> = test_idx.iter().map(|&i| dataset.graphs[i].clone()).collect();
        let opts = InferOptions { strict: true, ..InferOptions::default() };
        let report = session.score_with(&accounts, &opts).expect("strict scoring");
        probs.push(
            report
                .scores
                .iter()
                .map(|r| r.as_ref().expect("strict result").score.to_bits())
                .collect::<Vec<u64>>(),
        );
    }
    assert_eq!(
        probs[0], probs[1],
        "batched pipeline output depends on worker-thread count (1 vs 8)"
    );
}
