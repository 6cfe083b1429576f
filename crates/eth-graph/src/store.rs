//! Streaming graph ingest: a mutable [`TxGraph`] that grows in place.
//!
//! [`GraphStore`] owns the multigraph and accepts transaction batches via
//! [`GraphStore::apply`], incrementally updating pair statistics, the
//! per-account ranked-neighbour orderings that drive top-K sampling
//! (Eq. 2), and a time-slice partition of the transaction log. Each batch
//! returns an [`IngestDelta`] naming exactly which accounts' sampled
//! subgraphs may have changed, so downstream score caches can evict only
//! affected fingerprints instead of flushing wholesale.
//!
//! # Equivalence contract
//!
//! After any sequence of `apply` calls, the store is **bit-identical** to a
//! from-scratch [`TxGraph::build`] over the same applied records: the same
//! graph indices, the same sampled subgraphs, and therefore the same
//! scores. Two mechanisms carry the proof obligation:
//!
//! * insertion replicates `build`'s fold order — pair `total_value`
//!   accumulates in arrival order and neighbour lists are kept sorted and
//!   deduplicated, so every accessor observes identical state;
//! * sampling from the store consults cached full rankings produced by the
//!   *same* comparator the free sampler uses
//!   ([`rank_neighbours`](crate::sampling) — avg value desc, total value
//!   desc, id asc), recomputed for an account whenever a batch touches it.
//!
//! The `tests/stream_equivalence.rs` proptest suite pins this at 1 and 8
//! threads.
//!
//! # Delta semantics
//!
//! `IngestDelta::accounts` is the union of the `hops`-radius balls around
//! the endpoints of every applied record, computed on the **post-batch**
//! graph. This is a sound superset: edges are only ever added, so any
//! account outside the ball samples a bit-identical subgraph before and
//! after the batch. It is also **split-invariant**: applying a batch as N
//! smaller batches yields deltas whose union equals the single-batch delta
//! — for any node within `hops` of a new edge, pick the latest-applied
//! edge on the connecting path; every earlier edge already existed when it
//! was applied, so that sub-batch's ball already contains the node.
//!
//! # Faults
//!
//! Two chaos sites live here: `drop@ingest.tx:<ordinal>` drops the N-th
//! record ever presented to the store (counted across batches, so a drop
//! plan hits the same record under any batch split), and
//! `corrupt@ingest.batch` is honoured by the serve layer on the wire
//! (see `serve::proto`).

use crate::sampling::{self, SamplerConfig};
use crate::subgraph::Subgraph;
use crate::tx::{AccountKind, TxRecord};
use crate::txgraph::TxGraph;
use std::borrow::Cow;
use std::collections::HashSet;

/// Default time-slice width: 30 days of Unix seconds.
const DEFAULT_SLICE_SECS: u64 = 30 * 86_400;

/// Parameters of a [`GraphStore`].
///
/// `#[non_exhaustive]`: construct with [`StoreConfig::new`] or
/// [`StoreConfig::default`].
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct StoreConfig {
    /// Radius of the affected-account balls reported in [`IngestDelta`].
    /// Must be ≥ the `hops` of any [`SamplerConfig`] used against the
    /// store, otherwise the delta is not a sound invalidation set;
    /// [`GraphStore::sample`] asserts this.
    pub hops: usize,
    /// Width of one time-slice bucket, in seconds of transaction time.
    pub slice_secs: u64,
    /// Timestamp at which slice 0 begins; earlier timestamps clamp into
    /// slice 0.
    pub epoch_start: u64,
}

impl StoreConfig {
    /// A store partitioning time into `slice_secs` buckets from
    /// `epoch_start` and reporting `hops`-radius ingest deltas.
    #[must_use]
    pub fn new(hops: usize, slice_secs: u64, epoch_start: u64) -> Self {
        assert!(slice_secs > 0, "time slices need a positive width");
        Self { hops, slice_secs, epoch_start }
    }
}

impl Default for StoreConfig {
    fn default() -> Self {
        // hops matches SamplerConfig::default().
        Self::new(2, DEFAULT_SLICE_SECS, 0)
    }
}

/// Why [`GraphStore::apply`] refused one record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestReject {
    /// An endpoint is not a known account id.
    UnknownAccount { endpoint: usize, n: usize },
    /// A NaN or infinite value/fee — it would poison pair statistics.
    NonFinite { field: &'static str },
}

impl std::fmt::Display for IngestReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestReject::UnknownAccount { endpoint, n } => {
                write!(f, "endpoint {endpoint} outside the known accounts 0..{n}")
            }
            IngestReject::NonFinite { field } => write!(f, "non-finite {field}"),
        }
    }
}

/// What one [`GraphStore::apply`] batch did to the graph.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IngestDelta {
    /// Sorted, deduplicated global ids of every account whose sampled
    /// `≤ hops` subgraph may differ from before the batch (see the module
    /// docs for why this is a sound, split-invariant superset). Accounts
    /// *not* listed are guaranteed to sample bit-identically.
    pub accounts: Vec<usize>,
    /// Records applied to the graph.
    pub applied: usize,
    /// Records skipped because `submitted` was false (mirrors
    /// [`TxGraph::build`]'s filter).
    pub skipped: usize,
    /// Records dropped by the `drop@ingest.tx` fault site.
    pub dropped: usize,
    /// Records refused with a typed reason, keyed by batch-local index.
    pub rejected: Vec<(usize, IngestReject)>,
}

impl IngestDelta {
    /// Fold another batch's delta into this one: accounts union, counters
    /// sum. `rejected` indices stay batch-local (they identify records
    /// within their own batch, not a global position).
    pub fn merge(&mut self, other: &IngestDelta) {
        self.accounts.extend_from_slice(&other.accounts);
        self.accounts.sort_unstable();
        self.accounts.dedup();
        self.applied += other.applied;
        self.skipped += other.skipped;
        self.dropped += other.dropped;
        self.rejected.extend_from_slice(&other.rejected);
    }

    /// Whether the batch changed nothing.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty() && self.applied == 0
    }
}

/// The mutable multigraph behind streaming ingest (see module docs).
pub struct GraphStore {
    graph: TxGraph,
    config: StoreConfig,
    /// Full [`sampling::rank_neighbours`] ordering per account, recomputed
    /// eagerly for every account a batch touches, so `sample` is `&self`.
    ranked: Vec<Vec<usize>>,
    /// Transaction indices per time-slice bucket.
    slices: Vec<Vec<usize>>,
    /// `(first_seen, last_seen)` transaction timestamps per account.
    activity: Vec<Option<(u64, u64)>>,
    /// Records ever presented to `apply` (fault-site ordinal).
    presented: u64,
    batches: u64,
}

impl GraphStore {
    /// An empty store over `kinds` accounts.
    #[must_use]
    pub fn new(kinds: Vec<AccountKind>, config: StoreConfig) -> Self {
        let n = kinds.len();
        Self {
            graph: TxGraph::build(kinds, Vec::new()),
            config,
            ranked: vec![Vec::new(); n],
            slices: Vec::new(),
            activity: vec![None; n],
            presented: 0,
            batches: 0,
        }
    }

    /// Register `extra` fresh accounts, returning the first new id.
    pub fn add_accounts(&mut self, extra: &[AccountKind]) -> usize {
        let first = self.graph.push_accounts(extra);
        self.ranked.resize_with(self.graph.n_accounts(), Vec::new);
        self.activity.resize(self.graph.n_accounts(), None);
        first
    }

    /// Ingest a batch: validate, apply, update every index in place, and
    /// report the affected-account delta.
    pub fn apply(&mut self, batch: &[TxRecord]) -> IngestDelta {
        let _span = obs::span("graph.ingest");
        let mut delta = IngestDelta::default();
        let mut endpoints: Vec<usize> = Vec::new();
        let n = self.graph.n_accounts();
        for (i, t) in batch.iter().enumerate() {
            let ordinal = self.presented as usize;
            self.presented += 1;
            if !t.submitted {
                delta.skipped += 1;
                continue;
            }
            if faults::drops("ingest.tx", Some(ordinal)) {
                delta.dropped += 1;
                continue;
            }
            if t.from >= n || t.to >= n {
                let endpoint = if t.from >= n { t.from } else { t.to };
                delta.rejected.push((i, IngestReject::UnknownAccount { endpoint, n }));
                continue;
            }
            let bad =
                [("value", t.value), ("fee", t.fee())].into_iter().find(|(_, v)| !v.is_finite());
            if let Some((field, _)) = bad {
                delta.rejected.push((i, IngestReject::NonFinite { field }));
                continue;
            }

            let idx = self.graph.n_transactions();
            self.graph.insert_submitted(*t);
            delta.applied += 1;
            endpoints.push(t.from);
            endpoints.push(t.to);

            let slice = (t.timestamp.saturating_sub(self.config.epoch_start)
                / self.config.slice_secs) as usize;
            if slice >= self.slices.len() {
                self.slices.resize_with(slice + 1, Vec::new);
            }
            self.slices[slice].push(idx);

            for a in [t.from, t.to] {
                self.activity[a] = Some(match self.activity[a] {
                    None => (t.timestamp, t.timestamp),
                    Some((lo, hi)) => (lo.min(t.timestamp), hi.max(t.timestamp)),
                });
            }
        }

        // Re-rank every touched account on the post-batch graph: rankings
        // depend only on incident pair stats, so untouched accounts keep
        // theirs bit-identically.
        endpoints.sort_unstable();
        endpoints.dedup();
        for &a in &endpoints {
            self.ranked[a] = sampling::rank_neighbours(&self.graph, a);
        }
        delta.accounts = self.ball(&endpoints, self.config.hops);

        self.batches += 1;
        obs::counter_add("graph.ingest.batches", 1);
        obs::counter_add("graph.ingest.txs", delta.applied as u64);
        obs::counter_add("graph.ingest.dropped", delta.dropped as u64);
        obs::counter_add("graph.ingest.rejected", delta.rejected.len() as u64);
        obs::gauge_set("graph.store.txs", self.graph.n_transactions() as f64);
        obs::gauge_set("graph.store.slices", self.slices.len() as f64);
        delta
    }

    /// The `hops`-radius ball around `seeds` on the current graph, sorted.
    fn ball(&self, seeds: &[usize], hops: usize) -> Vec<usize> {
        let mut seen: HashSet<usize> = seeds.iter().copied().collect();
        let mut out: Vec<usize> = seen.iter().copied().collect();
        let mut frontier: Vec<usize> = out.clone();
        for _ in 0..hops {
            let mut next = Vec::new();
            for &a in &frontier {
                for &nb in self.graph.neighbours(a) {
                    if seen.insert(nb) {
                        out.push(nb);
                        next.push(nb);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        out.sort_unstable();
        out
    }

    /// Sample the account-centred subgraph for `center` from the live
    /// graph — bit-identical to [`crate::sample_subgraph`] on a
    /// from-scratch rebuild, but served from the cached rankings.
    ///
    /// Panics if `config.hops` exceeds the store's delta radius
    /// ([`StoreConfig::hops`]): deltas could then miss affected accounts.
    #[must_use]
    pub fn sample(&self, center: usize, config: SamplerConfig, label: Option<usize>) -> Subgraph {
        assert!(
            config.hops <= self.config.hops,
            "sampler hops ({}) exceed the store's delta radius ({})",
            config.hops,
            self.config.hops
        );
        sampling::sample_with_ranker(&self.graph, center, config, label, |_, node| {
            Cow::Borrowed(self.ranked[node].as_slice())
        })
    }

    /// The underlying immutable graph view.
    pub fn graph(&self) -> &TxGraph {
        &self.graph
    }

    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Number of (possibly empty) time-slice buckets so far.
    pub fn n_slices(&self) -> usize {
        self.slices.len()
    }

    /// Transaction indices (into [`TxGraph::transactions`]) in slice `i`,
    /// in arrival order.
    pub fn slice(&self, i: usize) -> &[usize] {
        &self.slices[i]
    }

    /// `[lo, hi)` timestamp bounds of slice `i`.
    pub fn slice_bounds(&self, i: usize) -> (u64, u64) {
        let lo = self.config.epoch_start + i as u64 * self.config.slice_secs;
        (lo, lo + self.config.slice_secs)
    }

    /// First/last transaction timestamps seen for `account`, if any.
    pub fn activity(&self, account: usize) -> Option<(u64, u64)> {
        self.activity[account]
    }

    /// Batches applied so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_subgraph;

    fn tx(from: usize, to: usize, value: f64, ts: u64) -> TxRecord {
        TxRecord {
            from,
            to,
            value,
            timestamp: ts,
            gas_price: 1e-9,
            gas_used: 21_000.0,
            contract_call: false,
            submitted: true,
        }
    }

    fn assert_graph_eq(a: &TxGraph, b: &TxGraph) {
        assert_eq!(a.n_accounts(), b.n_accounts());
        assert_eq!(a.transactions(), b.transactions());
        for acc in 0..a.n_accounts() {
            assert_eq!(a.neighbours(acc), b.neighbours(acc), "neighbours of {acc}");
            assert_eq!(a.sent_by(acc), b.sent_by(acc));
            assert_eq!(a.received_by(acc), b.received_by(acc));
            for &nb in a.neighbours(acc) {
                assert_eq!(a.pair(acc, nb), b.pair(acc, nb), "pair ({acc},{nb})");
            }
        }
    }

    fn line_batch() -> Vec<TxRecord> {
        vec![tx(0, 1, 5.0, 10), tx(1, 2, 3.0, 20), tx(2, 3, 2.0, 30), tx(3, 4, 1.0, 40)]
    }

    #[test]
    fn incremental_apply_matches_build() {
        let kinds = vec![AccountKind::Eoa; 5];
        let mut store = GraphStore::new(kinds.clone(), StoreConfig::default());
        for t in line_batch() {
            store.apply(&[t]);
        }
        let rebuilt = TxGraph::build(kinds, line_batch());
        assert_graph_eq(store.graph(), &rebuilt);
    }

    #[test]
    fn sample_matches_from_scratch_sampler() {
        let kinds = vec![AccountKind::Eoa; 5];
        let mut store = GraphStore::new(kinds.clone(), StoreConfig::default());
        store.apply(&line_batch());
        let rebuilt = TxGraph::build(kinds, line_batch());
        for center in 0..5 {
            let a = store.sample(center, SamplerConfig::default(), Some(1));
            let b = sample_subgraph(&rebuilt, center, SamplerConfig::default(), Some(1));
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.kinds, b.kinds);
            assert_eq!(a.txs, b.txs);
            assert_eq!(a.label, b.label);
        }
    }

    #[test]
    fn delta_is_the_post_batch_ball_around_endpoints() {
        let kinds = vec![AccountKind::Eoa; 6];
        let mut store = GraphStore::new(kinds, StoreConfig::default());
        store.apply(&line_batch()); // line 0-1-2-3-4; 5 isolated
        let delta = store.apply(&[tx(0, 1, 1.0, 50)]);
        // hops=2 ball around {0,1} on the line: {0,1,2,3}.
        assert_eq!(delta.accounts, vec![0, 1, 2, 3]);
        assert_eq!(delta.applied, 1);
    }

    #[test]
    fn delta_union_is_split_invariant() {
        let kinds = vec![AccountKind::Eoa; 6];
        let batch = line_batch();
        let mut big = GraphStore::new(kinds.clone(), StoreConfig::default());
        let big_delta = big.apply(&batch);
        let mut split = GraphStore::new(kinds, StoreConfig::default());
        let mut union = IngestDelta::default();
        for t in &batch {
            union.merge(&split.apply(std::slice::from_ref(t)));
        }
        assert_eq!(union.accounts, big_delta.accounts);
        assert_eq!(union.applied, big_delta.applied);
        assert_graph_eq(big.graph(), split.graph());
    }

    #[test]
    fn invalid_records_are_rejected_not_applied() {
        let mut store = GraphStore::new(vec![AccountKind::Eoa; 2], StoreConfig::default());
        let mut unsubmitted = tx(0, 1, 1.0, 5);
        unsubmitted.submitted = false;
        let mut nan = tx(0, 1, 1.0, 5);
        nan.value = f64::NAN;
        let delta = store.apply(&[tx(0, 9, 1.0, 5), unsubmitted, nan, tx(0, 1, 2.0, 6)]);
        assert_eq!(delta.applied, 1);
        assert_eq!(delta.skipped, 1);
        assert_eq!(delta.rejected.len(), 2);
        assert_eq!(delta.rejected[0], (0, IngestReject::UnknownAccount { endpoint: 9, n: 2 }));
        assert_eq!(delta.rejected[1], (2, IngestReject::NonFinite { field: "value" }));
        assert_eq!(store.graph().n_transactions(), 1);
    }

    #[test]
    fn time_slices_partition_the_log() {
        let config = StoreConfig::new(2, 100, 1_000);
        let mut store = GraphStore::new(vec![AccountKind::Eoa; 3], config);
        // Before epoch_start clamps into slice 0; others bucket by width.
        store.apply(&[tx(0, 1, 1.0, 500), tx(0, 1, 1.0, 1_050), tx(1, 2, 1.0, 1_250)]);
        assert_eq!(store.n_slices(), 3);
        assert_eq!(store.slice(0), &[0, 1]);
        assert_eq!(store.slice(1), &[] as &[usize]);
        assert_eq!(store.slice(2), &[2]);
        assert_eq!(store.slice_bounds(2), (1_200, 1_300));
        let total: usize = (0..store.n_slices()).map(|i| store.slice(i).len()).sum();
        assert_eq!(total, store.graph().n_transactions());
    }

    #[test]
    fn activity_tracks_first_and_last_seen() {
        let mut store = GraphStore::new(vec![AccountKind::Eoa; 3], StoreConfig::default());
        store.apply(&[tx(0, 1, 1.0, 30), tx(1, 0, 1.0, 10)]);
        assert_eq!(store.activity(0), Some((10, 30)));
        assert_eq!(store.activity(2), None);
    }

    #[test]
    fn add_accounts_extends_the_universe() {
        let mut store = GraphStore::new(vec![AccountKind::Eoa; 2], StoreConfig::default());
        let first = store.add_accounts(&[AccountKind::Contract]);
        assert_eq!(first, 2);
        let delta = store.apply(&[tx(0, 2, 1.0, 5)]);
        assert_eq!(delta.applied, 1);
        assert_eq!(store.graph().kind(2), AccountKind::Contract);
    }
}
