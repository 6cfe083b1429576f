//! Tier-1 train/serve persistence suite.
//!
//! The contract under test: a model trained once, saved, and reloaded (as a
//! fresh process would) produces **byte-identical** predictions to the
//! in-memory model, for every account category and at any worker-thread
//! count — and a damaged model file is always a typed error, never a panic.

use dbg4eth::{run, Dbg4EthConfig, Error, InferOptions, ModelIoError, Session, TrainedModel};
use eth_graph::{SamplerConfig, Subgraph};
use eth_sim::{AccountClass, Benchmark, DatasetScale, GraphDataset};
use std::path::PathBuf;

fn tiny_config() -> Dbg4EthConfig {
    let mut cfg = Dbg4EthConfig::fast();
    cfg.epochs = 4;
    cfg.gsg.hidden = 16;
    cfg.gsg.d_out = 8;
    cfg.ldg.hidden = 16;
    cfg.ldg.d_out = 8;
    cfg.ldg.pool_clusters = [6, 3, 1];
    cfg.t_slices = 4;
    cfg.parallelism = 1;
    cfg
}

fn all_category_bench(seed: u64) -> Benchmark {
    let scale = DatasetScale {
        exchange: 10,
        ico_wallet: 10,
        mining: 10,
        phish_hack: 10,
        bridge: 10,
        defi: 10,
    };
    Benchmark::generate(scale, SamplerConfig::new(12, 2), seed)
}

fn test_split_graphs(dataset: &GraphDataset, train_frac: f64, seed: u64) -> Vec<Subgraph> {
    let (_, test_idx) = dataset.split(train_frac, seed);
    test_idx.iter().map(|&i| dataset.graphs[i].clone()).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|p| p.to_bits()).collect()
}

/// Strict serving through the Session API: every account must score, and
/// the scores come back in input order.
fn strict_scores(session: &Session, accounts: &[Subgraph]) -> Vec<f64> {
    strict_scores_with(session, accounts, None)
}

fn strict_scores_with(
    session: &Session,
    accounts: &[Subgraph],
    threads: Option<usize>,
) -> Vec<f64> {
    let opts = InferOptions { strict: true, threads, ..InferOptions::default() };
    let report = session.score_with(accounts, &opts).expect("strict scoring");
    report.scores.into_iter().map(|r| r.expect("strict result").score).collect()
}

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbg4eth-persistence-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// The core acceptance criterion: for **all six** account categories,
/// train → save → load → infer equals in-memory inference bit for bit, and
/// the serving path reproduces the training run's own test scores — at one
/// worker thread and at eight.
#[test]
fn saved_models_serve_byte_identical_predictions_for_all_categories() {
    let bench = all_category_bench(11);
    for class in AccountClass::LABELLED {
        let dataset = bench.dataset(class);
        let cfg = tiny_config();
        let (session, run_out) = Session::train(dataset, 0.7, &cfg).expect("train");
        let accounts = test_split_graphs(dataset, 0.7, cfg.seed);

        // The serving path retraces the pipeline's test path exactly.
        let in_memory = strict_scores(&session, &accounts);
        assert_eq!(
            bits(&in_memory),
            bits(&run_out.test_scores),
            "{} serving diverged from the training run",
            class.name()
        );

        // Disk round trip, then serve again — same bits.
        let path = scratch_path(&format!("{}.dbgm", class.name().replace('/', "-")));
        session.save(&path).expect("save");
        let loaded = Session::open(&path).expect("load");
        assert_eq!(
            bits(&strict_scores(&loaded, &accounts)),
            bits(&in_memory),
            "{} reloaded model diverged",
            class.name()
        );

        // Thread count is a performance knob, never a numerics knob.
        for threads in [2, 8] {
            assert_eq!(
                bits(&strict_scores_with(&loaded, &accounts, Some(threads))),
                bits(&in_memory),
                "{} diverged at {threads} threads",
                class.name()
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

/// `Session::train` is `run` plus model capture: its reported run must
/// match a plain `run` bit for bit, and the container must round-trip
/// through memory too.
#[test]
fn train_matches_run_and_containers_round_trip_in_memory() {
    let bench = all_category_bench(12);
    let dataset = bench.dataset(AccountClass::Exchange);
    let cfg = tiny_config();
    let plain = run(dataset, 0.7, &cfg);
    let (session, run_out) = Session::train(dataset, 0.7, &cfg).expect("train");
    assert_eq!(bits(&plain.test_scores), bits(&run_out.test_scores));
    assert_eq!(plain.metrics.f1, run_out.metrics.f1);

    let bytes = session.model().to_bytes();
    let loaded =
        Session::from_model(TrainedModel::from_bytes(&bytes).expect("in-memory round trip"));
    let accounts = test_split_graphs(dataset, 0.7, cfg.seed);
    assert_eq!(bits(&strict_scores(&loaded, &accounts)), bits(&run_out.test_scores));
    // Serialisation is deterministic: same model, same bytes.
    assert_eq!(bytes, loaded.model().to_bytes());
}

/// An empty account batch is a no-op, not an error.
#[test]
fn scoring_an_empty_batch_returns_empty() {
    let bench = all_category_bench(13);
    let (session, _) =
        Session::train(bench.dataset(AccountClass::Mining), 0.7, &tiny_config()).expect("train");
    assert!(session.score(&[]).scores.is_empty());
}

/// Rewrite a v3 container as its faithful v2 equivalent: strip the
/// trailing confidence scaler from each encoder-branch section and set the
/// header's version field to 2. The version field sits outside the section
/// CRCs; the modified branch payloads are re-checksummed by `ModelWriter`.
fn downgrade_to_v2(v3: &[u8]) -> Vec<u8> {
    let u32_at = |pos: usize| u32::from_le_bytes(v3[pos..pos + 4].try_into().unwrap());
    let u64_at = |pos: usize| u64::from_le_bytes(v3[pos..pos + 8].try_into().unwrap());
    let mut w = model_io::ModelWriter::new();
    let n_sections = u32_at(8) as usize; // magic (4) + version (4)
    let mut pos = 12;
    for _ in 0..n_sections {
        let name_len = u32_at(pos) as usize;
        pos += 4;
        let name = std::str::from_utf8(&v3[pos..pos + name_len]).unwrap().to_string();
        pos += name_len;
        let payload_len = u64_at(pos) as usize;
        pos += 8;
        let mut payload = v3[pos..pos + payload_len].to_vec();
        pos += payload_len + 4; // payload + stored CRC
        if name == "gsg" || name == "ldg" {
            // v3 appended `present bool + mean f64 + std f64`; a v2 writer
            // stopped right before it.
            assert_eq!(payload[payload.len() - 17], 1, "expected a present scaler in {name}");
            payload.truncate(payload.len() - 17);
        }
        let mut sec = model_io::SectionWriter::new();
        for b in payload {
            sec.put_u8(b);
        }
        w.push(&name, sec);
    }
    let mut v2 = w.to_bytes();
    v2[4..8].copy_from_slice(&2u32.to_le_bytes());
    v2
}

/// A pre-v3 container still loads. Plain (batch-refit) scoring never
/// consulted the stored scaler, so it stays bit-identical to the training
/// run; a pinned-scaling request has no scaler to pin and must degrade to
/// batch refitting — served scores flagged degraded, never an error.
#[test]
fn v2_containers_load_and_pinned_scaling_degrades_to_refit() {
    let bench = all_category_bench(15);
    let dataset = bench.dataset(AccountClass::Exchange);
    let cfg = tiny_config();
    let (trained, run_out) = Session::train(dataset, 0.7, &cfg).expect("train");
    let accounts = test_split_graphs(dataset, 0.7, cfg.seed);
    let v2 = downgrade_to_v2(&trained.model().to_bytes());

    let path = scratch_path("v2-model.dbgm");
    std::fs::write(&path, &v2).expect("write v2 container");
    let session = Session::open(&path).expect("v2 container must load strictly");

    let report = session.score(&accounts);
    let got: Vec<u64> =
        report.scores.iter().map(|r| r.as_ref().expect("scored").score.to_bits()).collect();
    assert_eq!(got, bits(&run_out.test_scores), "v2 refit scoring diverged from the training run");

    let opts = InferOptions { pinned_scaling: true, ..InferOptions::default() };
    let report = session.score_with(&accounts, &opts).expect("degraded, not fatal");
    for (i, r) in report.scores.iter().enumerate() {
        let s = r.as_ref().expect("still scored");
        assert!(s.degraded, "account {i}: pre-v3 pinned scaling must be flagged degraded");
    }
    assert_eq!(report.degraded, accounts.len(), "every account rode the scaler-refit fallback");
    std::fs::remove_file(&path).ok();
}

/// Every way a model file can be damaged — wrong magic, unsupported
/// version, truncation at any point, any single flipped bit, or a missing
/// section — must surface as a typed [`ModelIoError`]. Loading never
/// panics and never silently yields a model.
#[test]
fn corrupted_model_files_fail_with_typed_errors() {
    let bench = all_category_bench(14);
    let mut cfg = tiny_config();
    cfg.epochs = 2;
    cfg.use_ldg = false; // smallest trainable model
    let bytes = Session::train(bench.dataset(AccountClass::Defi), 0.7, &cfg)
        .expect("train")
        .0
        .into_model()
        .to_bytes();
    assert!(TrainedModel::from_bytes(&bytes).is_ok(), "pristine bytes load");

    // Wrong magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(TrainedModel::from_bytes(&bad), Err(ModelIoError::BadMagic { .. })));

    // Future format version.
    let mut bad = bytes.clone();
    bad[4..8].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        TrainedModel::from_bytes(&bad),
        Err(ModelIoError::UnsupportedVersion { found: 99, .. })
    ));

    // Truncation at a spread of cut points, including the empty file.
    for keep in (0..bytes.len()).step_by(41) {
        let err = TrainedModel::from_bytes(&bytes[..keep])
            .err()
            .unwrap_or_else(|| panic!("prefix of {keep}/{} bytes loaded", bytes.len()));
        let _ = err.to_string(); // Display works for every variant
    }

    // A single flipped bit anywhere is caught (checksums cover payloads,
    // framing validation covers the header).
    for i in (0..bytes.len()).step_by(37) {
        let mut bad = bytes.clone();
        bad[i] ^= 1 << (i % 8);
        assert!(TrainedModel::from_bytes(&bad).is_err(), "bit flip at byte {i} went undetected");
    }

    // A structurally valid container missing the model sections.
    assert!(matches!(
        TrainedModel::from_bytes(&model_io::ModelWriter::new().to_bytes()),
        Err(ModelIoError::MissingSection { .. })
    ));

    // An extra section the model never reads: intact it is ignored, damaged
    // it fails every strict open, because each one verifies every section
    // checksum before returning — not only those reconstruction touches.
    let mut extra = model_io::ModelWriter::new();
    let mut s = model_io::SectionWriter::new();
    s.put_str("never read by the model");
    extra.push("extra", s);
    let mut with_extra = bytes.clone();
    let n_sections = u32::from_le_bytes(with_extra[8..12].try_into().unwrap());
    with_extra[8..12].copy_from_slice(&(n_sections + 1).to_le_bytes());
    with_extra.extend_from_slice(&extra.to_bytes()[12..]); // past the 12-byte header
    let path = scratch_path("extra-section.dbgm");
    std::fs::write(&path, &with_extra).unwrap();
    Session::open(&path).expect("an intact unknown section is ignored");
    assert!(model_io::corrupt_section(&mut with_extra, "extra"));
    std::fs::write(&path, &with_extra).unwrap();
    let opens = [("open", Session::open(&path)), ("open_mmap", Session::open_mmap(&path))];
    for (open, result) in opens {
        match result {
            Err(Error::Io(ModelIoError::ChecksumMismatch { section, .. })) => {
                assert_eq!(section, "extra", "{open}")
            }
            Err(e) => panic!("{open}: expected ChecksumMismatch on 'extra', got {e}"),
            Ok(_) => panic!("{open}: loaded a container with a damaged section"),
        }
    }
    std::fs::remove_file(&path).unwrap();

    // A missing file is a typed Io error, not a panic.
    assert!(matches!(
        Session::open(scratch_path("no-such-model.dbgm")),
        Err(Error::Io(ModelIoError::Io(_)))
    ));
}
