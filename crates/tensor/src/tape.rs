//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every primitive operation performed on [`Var`]s during a
//! forward pass (define-by-run, like PyTorch). [`Tape::backward`] then walks
//! the tape in reverse, accumulating gradients into the leaves. Two
//! pruning rules keep the walk lean without changing a single surviving
//! bit: subtrees rooted only in constants ([`Tape::constant`]) are skipped
//! outright, and interior gradients are moved (transformed in place) or
//! recycled as soon as they have been propagated.
//!
//! The op set is deliberately small but covers everything the paper's models
//! need: dense linear algebra, sparse-times-dense message passing
//! ([`Tape::spmm`] over a [`Csr`] adjacency), pointwise activations, row
//! gather / scatter-add, per-segment softmax (GAT attention normalisation),
//! pooling, and two fused losses (cross-entropy, NT-Xent is composed from
//! primitives in `gnn`). Every op's gradient is verified against central
//! finite differences in `tests/gradcheck.rs`.
//!
//! ## Buffer pool
//!
//! Every op output and every backward temporary is drawn from a
//! [`BufferPool`] — a free list of `Vec<f32>` buffers in size classes,
//! where a request may take a somewhat larger buffer or grow a smaller one.
//! Shapes repeat heavily across batches and epochs, so a tape constructed
//! with [`Tape::with_pool`] and recycled with [`Tape::into_pool`] serves
//! nearly all allocations from the pool after the first pass. Pooling is
//! invisible to the numerics: a reused buffer is either fully zeroed or
//! fully overwritten before use, so values are bit-identical to a
//! fresh-allocation run.
//!
//! A value is dead once its last forward consumer has run, unless a
//! backward arm still reads it. A caller that knows where a stage ends (the
//! LDG encoder at each time slice, the GSG encoder at each layer) hands
//! that stage's dead values back with [`Tape::release_since`], and the next
//! stage draws the same, still cache-warm buffers. A scoring tape
//! ([`Tape::scoring`]) never runs backward, so its pool holds about one
//! stage's activations; a training tape keeps only what backward reads.

use crate::csr::Csr;
use crate::exact;
use crate::tensor::{gemm_nn, gemm_tn, transpose_into, Tensor};
use std::sync::Arc;

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// Lifetime counters of a [`BufferPool`], for resource telemetry in the
/// run-report. Plain integers on the (single-owner) pool — no atomics, no
/// dependencies — so the pool is exactly as deterministic with or without
/// anyone reading them; harnesses flush them into `obs` counters at
/// reporting time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffer requests served from the free list.
    pub hits: u64,
    /// Buffer requests that fell through to the allocator.
    pub misses: u64,
    /// Bytes obtained from the allocator: fresh buffers, and each growth's
    /// increase (reuse is free). The pool's footprint.
    pub allocated_bytes: u64,
    /// Most bytes ever handed out and not yet given back, whichever
    /// buffers served them: the live peak the footprint is measured against.
    pub peak_live_bytes: u64,
    /// Most buffers ever parked in the free list at once.
    pub high_water_buffers: u64,
    /// Tape nodes recorded by every tape recycled into this pool
    /// ([`Tape::into_pool`]) — the op-count of the work the pool served.
    pub tape_ops: u64,
}

/// A free list of `f32` buffers in size classes of at least 8 elements,
/// eight per octave.
///
/// [`Tape`] draws all forward values and gradients from a pool and
/// [`Tape::into_pool`] returns every buffer for the next pass. A request for
/// `len` elements takes a buffer parked in the smallest class holding `len`
/// or up to two octaves above it, and trims (or zero-extends) it to the
/// exact length. Failing that, it grows the largest parked smaller buffer,
/// or allocates when none is parked; a returned buffer parks under the
/// largest class its capacity covers. Packed mini-batches have a different
/// total row count every shuffle; reuse across classes and growth keep one
/// set of buffers serving them all, so the footprint stays near the live
/// peak. The pool never shrinks.
#[derive(Default)]
pub struct BufferPool {
    /// Parked buffers, indexed by size class.
    free: Vec<Vec<Vec<f32>>>,
    /// Buffers currently parked, so the high-water mark updates in O(1).
    parked: u64,
    /// Bytes handed out and not yet given back.
    live_bytes: u64,
    stats: PoolStats,
}

/// Length of class `class`'s buffers: `2ᵏ + j·2ᵏ⁻³` for `k ≥ 3`, `j < 8`.
fn class_len(class: usize) -> usize {
    let k = 3 + class / 8;
    (1 << k) + ((class % 8) << (k - 3))
}

/// The largest class whose buffers fit in `cap ≥ 8` elements.
fn class_within(cap: usize) -> usize {
    let k = (usize::BITS - 1 - cap.leading_zeros()) as usize;
    8 * (k - 3) + ((cap - (1 << k)) >> (k - 3))
}

fn bytes(len: usize) -> u64 {
    (len * size_of::<f32>()) as u64
}

impl BufferPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffers currently parked in the pool.
    pub fn buffers(&self) -> usize {
        self.free.iter().map(Vec::len).sum()
    }

    /// Lifetime hit/miss/allocation counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// A zero-filled buffer of length `len` (for accumulation kernels).
    fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_any(len);
        buf.fill(0.0);
        buf
    }

    /// A buffer of length `len` with unspecified contents; the caller must
    /// overwrite every element.
    fn take_any(&mut self, len: usize) -> Vec<f32> {
        self.live_bytes += bytes(len);
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.live_bytes);
        let within = class_within(len.max(8));
        let class = within + usize::from(class_len(within) < len);
        let n = self.free.len();
        let is_parked = |c: &usize| !self.free[*c].is_empty();
        // Sixteen classes up is two octaves.
        let reuse = (class.min(n)..n.min(class + 17)).find(is_parked);
        let smaller = || (0..class.min(n)).rev().find(is_parked);
        let mut buf = reuse.or_else(smaller).map_or_else(Vec::new, |c| {
            self.parked -= 1;
            self.free[c].pop().expect("class holds a parked buffer")
        });
        if reuse.is_some() {
            self.stats.hits += 1;
        } else {
            // Grow through a fresh allocation: `reserve` would `realloc`,
            // copying old contents nobody reads.
            self.stats.misses += 1;
            self.stats.allocated_bytes += bytes(class_len(class) - buf.capacity());
            drop(buf);
            buf = Vec::with_capacity(class_len(class));
        }
        buf.resize(len, 0.0);
        buf
    }

    fn give(&mut self, buf: Vec<f32>) {
        // Saturating: a buffer made outside the pool was never counted live.
        self.live_bytes = self.live_bytes.saturating_sub(bytes(buf.len()));
        if buf.capacity() >= 8 {
            let class = class_within(buf.capacity());
            if self.free.len() <= class {
                self.free.resize_with(class + 1, Vec::new);
            }
            self.free[class].push(buf);
            self.parked += 1;
            self.stats.high_water_buffers = self.stats.high_water_buffers.max(self.parked);
        }
    }
}

fn pooled_uninit(pool: &mut BufferPool, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(rows, cols, pool.take_any(rows * cols))
}

fn pooled_zeros(pool: &mut BufferPool, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(rows, cols, pool.take_zeroed(rows * cols))
}

fn pooled_full(pool: &mut BufferPool, rows: usize, cols: usize, value: f32) -> Tensor {
    let mut t = pooled_uninit(pool, rows, cols);
    t.data_mut().fill(value);
    t
}

fn pooled_copy(pool: &mut BufferPool, src: &Tensor) -> Tensor {
    let (r, c) = src.shape();
    let mut t = pooled_uninit(pool, r, c);
    t.data_mut().copy_from_slice(src.data());
    t
}

fn pooled_map(pool: &mut BufferPool, src: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let (r, c) = src.shape();
    let mut t = pooled_uninit(pool, r, c);
    for (o, &x) in t.data_mut().iter_mut().zip(src.data()) {
        *o = f(x);
    }
    t
}

/// A pooled copy of `src` with `kernel` applied to it in place.
fn pooled_apply(pool: &mut BufferPool, src: &Tensor, kernel: fn(&mut [f32])) -> Tensor {
    let mut t = pooled_copy(pool, src);
    kernel(t.data_mut());
    t
}

fn pooled_zip(
    pool: &mut BufferPool,
    x: &Tensor,
    y: &Tensor,
    f: impl Fn(f32, f32) -> f32,
) -> Tensor {
    assert_eq!(x.shape(), y.shape(), "zip shape mismatch");
    let (r, c) = x.shape();
    let mut t = pooled_uninit(pool, r, c);
    for ((o, &a), &b) in t.data_mut().iter_mut().zip(x.data()).zip(y.data()) {
        *o = f(a, b);
    }
    t
}

fn pooled_transpose(pool: &mut BufferPool, src: &Tensor) -> Tensor {
    let (r, c) = src.shape();
    let mut t = pooled_uninit(pool, c, r);
    transpose_into(r, c, src.data(), t.data_mut());
    t
}

#[derive(Clone)]
enum Op {
    Leaf,
    Matmul(usize, usize),
    /// `csr @ dense`, with the adjacency held as a constant outside the
    /// tape. Backward only propagates to the dense operand: the dense path
    /// would compute an `(n, n)` gradient for the adjacency leaf too, but
    /// adjacencies are inputs, never parameters, so that gradient is never
    /// read and the sparse path skips it entirely.
    Spmm(Arc<Csr>, usize),
    Add(usize, usize),
    Mul(usize, usize),
    AddRowBroadcast(usize, usize),
    MulColBroadcast(usize, usize),
    Scale(usize, f32),
    AddScalar(usize),
    LeakyRelu(usize, f32),
    Elu(usize, f32),
    Relu(usize),
    Tanh(usize),
    Sigmoid(usize),
    SoftmaxRows(usize),
    Transpose(usize),
    ConcatCols(usize, usize),
    ConcatRows(usize, usize),
    GatherRows(usize, Arc<Vec<usize>>),
    ScatterAddRows(usize, Arc<Vec<usize>>),
    SegmentSoftmax(usize, Arc<Vec<usize>>),
    /// Per-segment column-wise max: `(Σn, d)` with row offsets -> `(B, d)`.
    /// Segment `s` of the output depends only on rows
    /// `offsets[s]..offsets[s + 1]`, so it is bit-identical to that segment
    /// pooled alone.
    SegmentMaxPoolRows(usize, Arc<Vec<usize>>),
    /// Per-segment column-wise mean, likewise segment-local.
    SegmentMeanPoolRows(usize, Arc<Vec<usize>>),
    /// Per-segment `mᵀ @ x` for row-aligned `m: (Σn, c)`, `x: (Σn, d)`,
    /// stacking the `(c, d)` products -> `(B·c, d)`. The batched DiffPool
    /// assignment product; bit-identical per segment to
    /// `transpose(m_s)` followed by `Op::Matmul` under Strict.
    SegMatmulTn(usize, usize, Arc<Vec<usize>>),
    /// Block-wise `a_s @ h_s` for uniform square blocks: `a: (B·c, c)`
    /// stacks `(c, c)` blocks, `h: (B·c, d)` stacks their right operands.
    /// Bit-identical per block to [`Op::Matmul`] under Strict.
    SegBlockMatmul(usize, usize),
    SumAll(usize),
    L2NormalizeRows(usize, f32),
    CrossEntropy(usize, Arc<Vec<usize>>),
}

/// A node's forward value, or only its shape once [`Tape::release_since`]
/// has recycled its buffer. The shape outlives the buffer because the
/// backward arms of the shape-only ops ([`Op::backward_reads`]) still ask
/// for it; any read of the data goes through [`Value::get`] and panics.
enum Value {
    Live(Tensor),
    Released(usize, usize),
}

impl Value {
    /// The live tensor. Panics on a released value: its buffer now belongs
    /// to the pool, so no result computed from it could be right.
    fn get(&self) -> &Tensor {
        match self {
            Value::Live(t) => t,
            Value::Released(r, c) => panic!("read of a released ({r}, {c}) tape value"),
        }
    }

    fn shape(&self) -> (usize, usize) {
        match self {
            Value::Live(t) => t.shape(),
            Value::Released(r, c) => (*r, *c),
        }
    }
}

struct Node {
    value: Value,
    grad: Option<Tensor>,
    op: Op,
    /// Whether any trainable leaf feeds this node. Backward skips gradient
    /// computation into subtrees where this is `false` (see
    /// [`Tape::constant`]); for nodes where it is `true` the accumulated
    /// gradients are bit-identical with or without the pruning, because a
    /// pruned branch only ever *receives* gradient, never contributes any.
    /// Never set on a scoring tape, which has no backward.
    requires: bool,
    /// Whether the backward arm of some recorded op reads this value
    /// ([`Op::backward_reads`]); [`Tape::release_since`] keeps it if so.
    read_by_backward: bool,
}

/// A record of a forward computation, enabling reverse-mode differentiation.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    pool: BufferPool,
    /// Forward-only ([`Tape::scoring`]): `backward` refuses to run, and no
    /// node requires a gradient, so no backward arm reads any value.
    scoring: bool,
}

impl Tape {
    pub fn new() -> Self {
        Self::default()
    }

    /// A tape that serves allocations from `pool`. Recycle with
    /// [`Tape::into_pool`] once gradients have been consumed.
    pub fn with_pool(pool: BufferPool) -> Self {
        Self { nodes: Vec::new(), pool, scoring: false }
    }

    /// A forward-only tape that serves allocations from `pool`: the same
    /// ops, bit for bit, as [`Tape::with_pool`], but [`Tape::backward`]
    /// panics, so [`Tape::release_since`] may recycle every dead value.
    pub fn scoring(pool: BufferPool) -> Self {
        Self { nodes: Vec::new(), pool, scoring: true }
    }

    /// Give the pool the value of every node recorded at or after `mark`
    /// (a [`Tape::len`] taken earlier) that is not a leaf (parameter copies
    /// and constants), not one of the `keep` vars, and not read by the
    /// backward arm of any recorded op. The caller asserts that no later op
    /// reads a released value; the `keep` vars are the ones later ops will
    /// read.
    ///
    /// One rule serves both tape kinds. A training tape keeps exactly the
    /// values some backward arm reads: each operand of a product whose
    /// other operand takes a gradient, the input of `relu`, `leaky_relu`,
    /// `segment_max_pool_rows` and the logits of `cross_entropy`, the
    /// output of `tanh`, `sigmoid`, `softmax_rows` and `segment_softmax`,
    /// and both for `elu` and `l2_normalize_rows`. A scoring tape has no
    /// backward, so it releases those too. Values never change, only
    /// buffers move, so outputs and gradients are bit-identical with or
    /// without a release.
    ///
    /// A released node keeps its shape, which the shape-only backward arms
    /// read, but no data: any read of it panics (on both tape kinds, for
    /// every op), so it never sees recycled or missing data. Releasing a
    /// node twice is harmless.
    pub fn release_since(&mut self, mark: usize, keep: &[Var]) {
        for (i, node) in self.nodes.iter_mut().enumerate().skip(mark) {
            if matches!(node.op, Op::Leaf) || node.read_by_backward || keep.contains(&Var(i)) {
                continue;
            }
            let (r, c) = node.value.shape();
            if let Value::Live(t) = std::mem::replace(&mut node.value, Value::Released(r, c)) {
                self.pool.give(t.into_vec());
            }
        }
    }

    /// Tear the tape down, returning every value and gradient buffer to the
    /// pool for the next pass.
    pub fn into_pool(self) -> BufferPool {
        let Tape { nodes, mut pool, .. } = self;
        pool.stats.tape_ops += nodes.len() as u64;
        for node in nodes {
            if let Value::Live(t) = node.value {
                pool.give(t.into_vec());
            }
            if let Some(g) = node.grad {
                pool.give(g.into_vec());
            }
        }
        pool
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        let requires = self.requires_of(&op);
        let i = self.nodes.len();
        let reads = op.backward_reads(i, |j| self.nodes[j].requires);
        self.push_node(value, op, requires);
        for j in reads.into_iter().flatten() {
            self.nodes[j].read_by_backward = true;
        }
        Var(i)
    }

    fn push_node(&mut self, value: Tensor, op: Op, requires: bool) -> Var {
        let value = Value::Live(value);
        self.nodes.push(Node { value, grad: None, op, requires, read_by_backward: false });
        Var(self.nodes.len() - 1)
    }

    /// Whether a node recorded with `op` depends on any trainable leaf.
    fn requires_of(&self, op: &Op) -> bool {
        match op {
            Op::Leaf => !self.scoring,
            Op::Spmm(_, a)
            | Op::Scale(a, _)
            | Op::AddScalar(a)
            | Op::LeakyRelu(a, _)
            | Op::Elu(a, _)
            | Op::Relu(a)
            | Op::Tanh(a)
            | Op::Sigmoid(a)
            | Op::SoftmaxRows(a)
            | Op::Transpose(a)
            | Op::GatherRows(a, _)
            | Op::ScatterAddRows(a, _)
            | Op::SegmentSoftmax(a, _)
            | Op::SegmentMaxPoolRows(a, _)
            | Op::SegmentMeanPoolRows(a, _)
            | Op::SumAll(a)
            | Op::L2NormalizeRows(a, _)
            | Op::CrossEntropy(a, _) => self.nodes[*a].requires,
            Op::Matmul(a, b)
            | Op::Add(a, b)
            | Op::Mul(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::MulColBroadcast(a, b)
            | Op::ConcatCols(a, b)
            | Op::ConcatRows(a, b)
            | Op::SegMatmulTn(a, b, _)
            | Op::SegBlockMatmul(a, b) => self.nodes[*a].requires || self.nodes[*b].requires,
        }
    }

    /// Insert a tensor as a leaf node (an input or parameter).
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Insert a copy of `value` as a leaf, drawing the copy from the buffer
    /// pool. Prefer this over `leaf(t.clone())` on hot paths.
    pub fn leaf_copy(&mut self, value: &Tensor) -> Var {
        let v = pooled_copy(&mut self.pool, value);
        self.push(v, Op::Leaf)
    }

    /// Insert a tensor as a constant leaf: a model *input* (features,
    /// adjacency rows, positional encodings) rather than a parameter.
    ///
    /// [`Tape::backward`] never materialises gradients for a constant or for
    /// any node all of whose ancestors are constants, so [`Tape::grad`]
    /// returns `None` for them. Gradients of every other node are
    /// bit-identical to what [`Tape::leaf`] would have produced — the pruned
    /// branches only ever receive gradient, never contribute to one.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push_node(value, Op::Leaf, false)
    }

    /// Insert a copy of `value` as a constant leaf, drawing the copy from
    /// the buffer pool. The constant analogue of [`Tape::leaf_copy`].
    pub fn constant_copy(&mut self, value: &Tensor) -> Var {
        let v = pooled_copy(&mut self.pool, value);
        self.push_node(v, Op::Leaf, false)
    }

    /// Borrow the value of a node.
    ///
    /// Panics if [`Tape::release_since`] has released the node.
    pub fn value(&self, v: Var) -> &Tensor {
        self.nodes[v.0].value.get()
    }

    /// Borrow the gradient of a node, if [`Tape::backward`] reached it.
    ///
    /// After `backward`, only leaf nodes hold gradients: interior nodes'
    /// gradient buffers are recycled into the pool as soon as they have been
    /// propagated, and constants ([`Tape::constant`]) never receive one.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Gradient of a node, or zeros of the node's shape if unset.
    pub fn grad_or_zeros(&self, v: Var) -> Tensor {
        match &self.nodes[v.0].grad {
            Some(g) => g.clone(),
            None => {
                let (r, c) = self.nodes[v.0].value.shape();
                Tensor::zeros(r, c)
            }
        }
    }

    // ---- primitive ops -------------------------------------------------

    /// Matrix product `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (n, m) = (self.nodes[a.0].value.get().rows(), self.nodes[b.0].value.get().cols());
        let mut out = pooled_uninit(&mut self.pool, n, m);
        self.nodes[a.0].value.get().matmul_into(self.nodes[b.0].value.get(), &mut out);
        self.push(out, Op::Matmul(a.0, b.0))
    }

    /// Sparse-times-dense product `adj @ h` with a constant CSR adjacency.
    ///
    /// Bit-identical to `matmul(leaf(adj.to_dense()), h)` — see the ordering
    /// contract on [`Csr`] — but skips the adjacency's never-read gradient
    /// and never materialises the `(n, n)` matrix on the tape.
    pub fn spmm(&mut self, adj: &Arc<Csr>, h: Var) -> Var {
        let mut out = pooled_uninit(&mut self.pool, adj.rows(), self.nodes[h.0].value.get().cols());
        adj.matmul_dense_into(self.nodes[h.0].value.get(), &mut out);
        self.push(out, Op::Spmm(Arc::clone(adj), h.0))
    }

    /// Elementwise `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = pooled_zip(
            &mut self.pool,
            self.nodes[a.0].value.get(),
            self.nodes[b.0].value.get(),
            |x, y| x + y,
        );
        self.push(v, Op::Add(a.0, b.0))
    }

    /// Elementwise (Hadamard) product `a ⊙ b` (same shape).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = pooled_zip(
            &mut self.pool,
            self.nodes[a.0].value.get(),
            self.nodes[b.0].value.get(),
            |x, y| x * y,
        );
        self.push(v, Op::Mul(a.0, b.0))
    }

    /// `a + b` where `a: (n, d)` and `b: (1, d)` is broadcast over rows
    /// (bias addition).
    pub fn add_row_broadcast(&mut self, a: Var, b: Var) -> Var {
        let (n, d) = self.nodes[a.0].value.shape();
        assert_eq!(self.nodes[b.0].value.shape(), (1, d), "add_row_broadcast shape");
        let mut v = pooled_uninit(&mut self.pool, n, d);
        let at = self.nodes[a.0].value.get();
        let bt = self.nodes[b.0].value.get();
        for r in 0..n {
            for ((o, &x), &y) in v.row_mut(r).iter_mut().zip(at.row(r)).zip(bt.row(0)) {
                *o = x + y;
            }
        }
        self.push(v, Op::AddRowBroadcast(a.0, b.0))
    }

    /// `a * b` where `a: (n, d)` and `b: (n, 1)` scales each row (attention
    /// coefficients applied to messages).
    pub fn mul_col_broadcast(&mut self, a: Var, b: Var) -> Var {
        let (n, d) = self.nodes[a.0].value.shape();
        assert_eq!(self.nodes[b.0].value.shape(), (n, 1), "mul_col_broadcast shape");
        let mut v = pooled_uninit(&mut self.pool, n, d);
        let at = self.nodes[a.0].value.get();
        let bt = self.nodes[b.0].value.get();
        for r in 0..n {
            let s = bt.get(r, 0);
            for (o, &x) in v.row_mut(r).iter_mut().zip(at.row(r)) {
                *o = x * s;
            }
        }
        self.push(v, Op::MulColBroadcast(a.0, b.0))
    }

    /// `c * a` for a constant scalar `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = pooled_map(&mut self.pool, self.nodes[a.0].value.get(), |x| c * x);
        self.push(v, Op::Scale(a.0, c))
    }

    /// `a + c` for a constant scalar `c`.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let v = pooled_map(&mut self.pool, self.nodes[a.0].value.get(), |x| x + c);
        self.push(v, Op::AddScalar(a.0))
    }

    /// `1 - a`, used by the GRU update gate.
    pub fn one_minus(&mut self, a: Var) -> Var {
        let neg = self.scale(a, -1.0);
        self.add_scalar(neg, 1.0)
    }

    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        let v = pooled_map(&mut self.pool, self.nodes[a.0].value.get(), |x| {
            if x > 0.0 {
                x
            } else {
                slope * x
            }
        });
        self.push(v, Op::LeakyRelu(a.0, slope))
    }

    pub fn elu(&mut self, a: Var, alpha: f32) -> Var {
        // The backward pass reconstructs the slope from the stored output
        // (`y + α`).
        let x = self.nodes[a.0].value.get();
        let mut v = pooled_apply(&mut self.pool, x, exact::exp_in_place);
        for (o, &x) in v.data_mut().iter_mut().zip(x.data()) {
            *o = if x > 0.0 { x } else { alpha * (*o - 1.0) };
        }
        self.push(v, Op::Elu(a.0, alpha))
    }

    pub fn relu(&mut self, a: Var) -> Var {
        let v = pooled_map(&mut self.pool, self.nodes[a.0].value.get(), |x| x.max(0.0));
        self.push(v, Op::Relu(a.0))
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        // glibc's tanhf bit-for-bit (the crate's own vectorised port).
        // Backward uses the stored output.
        let v = pooled_apply(&mut self.pool, self.nodes[a.0].value.get(), exact::tanh_in_place);
        self.push(v, Op::Tanh(a.0))
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = pooled_apply(&mut self.pool, self.nodes[a.0].value.get(), exact::sigmoid_in_place);
        self.push(v, Op::Sigmoid(a.0))
    }

    /// Numerically stable softmax over each row.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let (n, d) = self.nodes[a.0].value.shape();
        let mut v = pooled_uninit(&mut self.pool, n, d);
        softmax_rows_into(self.nodes[a.0].value.get().data(), d, v.data_mut());
        self.push(v, Op::SoftmaxRows(a.0))
    }

    pub fn transpose(&mut self, a: Var) -> Var {
        let v = pooled_transpose(&mut self.pool, self.nodes[a.0].value.get());
        self.push(v, Op::Transpose(a.0))
    }

    /// Concatenate along columns: `(n, p) || (n, q) -> (n, p + q)`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (n, p) = self.nodes[a.0].value.shape();
        let q = self.nodes[b.0].value.get().cols();
        assert_eq!(self.nodes[b.0].value.get().rows(), n, "concat_cols row mismatch");
        let mut v = pooled_uninit(&mut self.pool, n, p + q);
        let (x, y) = (self.nodes[a.0].value.get(), self.nodes[b.0].value.get());
        for r in 0..n {
            v.row_mut(r)[..p].copy_from_slice(x.row(r));
            v.row_mut(r)[p..].copy_from_slice(y.row(r));
        }
        self.push(v, Op::ConcatCols(a.0, b.0))
    }

    /// Stack along rows: `(p, d)` over `(q, d)` -> `(p + q, d)`.
    pub fn concat_rows(&mut self, a: Var, b: Var) -> Var {
        let (p, d) = self.nodes[a.0].value.shape();
        let q = self.nodes[b.0].value.get().rows();
        assert_eq!(self.nodes[b.0].value.get().cols(), d, "concat_rows col mismatch");
        let mut v = pooled_uninit(&mut self.pool, p + q, d);
        let (x, y) = (self.nodes[a.0].value.get(), self.nodes[b.0].value.get());
        v.data_mut()[..p * d].copy_from_slice(x.data());
        v.data_mut()[p * d..].copy_from_slice(y.data());
        self.push(v, Op::ConcatRows(a.0, b.0))
    }

    /// Select rows of `a` by `idx` (indices may repeat — e.g. the source node
    /// of each edge in a message-passing step).
    pub fn gather_rows(&mut self, a: Var, idx: Arc<Vec<usize>>) -> Var {
        let d = self.nodes[a.0].value.get().cols();
        let mut v = pooled_uninit(&mut self.pool, idx.len(), d);
        let x = self.nodes[a.0].value.get();
        for (r, &i) in idx.iter().enumerate() {
            v.row_mut(r).copy_from_slice(x.row(i));
        }
        self.push(v, Op::GatherRows(a.0, idx))
    }

    /// `out[idx[r]] += a[r]` for every row `r`; `out` has `n_out` rows.
    /// This is the aggregation step of message passing.
    pub fn scatter_add_rows(&mut self, a: Var, idx: Arc<Vec<usize>>, n_out: usize) -> Var {
        let (n, d) = self.nodes[a.0].value.shape();
        assert_eq!(idx.len(), n, "scatter_add_rows index length");
        let mut v = pooled_zeros(&mut self.pool, n_out, d);
        let x = self.nodes[a.0].value.get();
        for r in 0..n {
            let dst = idx[r];
            assert!(dst < n_out, "scatter index {dst} out of bounds {n_out}");
            for (o, &val) in v.row_mut(dst).iter_mut().zip(x.row(r)) {
                *o += val;
            }
        }
        self.push(v, Op::ScatterAddRows(a.0, idx))
    }

    /// Softmax over groups of rows of a column vector `a: (e, 1)`. Rows with
    /// equal `seg[r]` form one group. This normalises GAT attention scores
    /// over the in-neighbourhood of each destination node (Eq. 8).
    pub fn segment_softmax(&mut self, a: Var, seg: Arc<Vec<usize>>) -> Var {
        let rows = self.nodes[a.0].value.get().rows();
        assert_eq!(
            self.nodes[a.0].value.get().cols(),
            1,
            "segment_softmax expects a column vector"
        );
        assert_eq!(seg.len(), rows, "segment length mismatch");
        let mut v = pooled_uninit(&mut self.pool, rows, 1);
        let x = self.nodes[a.0].value.get();
        let n_seg = seg.iter().copied().max().map_or(0, |m| m + 1);
        let mut max = vec![f32::NEG_INFINITY; n_seg];
        for (r, &s) in seg.iter().enumerate() {
            max[s] = max[s].max(x.get(r, 0));
        }
        for (r, &s) in seg.iter().enumerate() {
            v.set(r, 0, x.get(r, 0) - max[s]);
        }
        exact::exp_in_place(v.data_mut());
        let mut denom = vec![0.0f32; n_seg];
        for (r, &s) in seg.iter().enumerate() {
            denom[s] += v.get(r, 0);
        }
        for (r, &s) in seg.iter().enumerate() {
            v.set(r, 0, v.get(r, 0) / denom[s].max(1e-30));
        }
        self.push(v, Op::SegmentSoftmax(a.0, seg))
    }

    /// Per-segment column-wise max (global max pooling, Eq. 10): rows
    /// `offsets[s]..offsets[s + 1]` of `a: (Σn, d)` pool to output row `s`,
    /// giving `(B, d)`. Ties break toward the lowest row index in both
    /// directions. Output row `s` reads only its own rows, so it is
    /// bit-identical to that row range pooled as a single segment — one
    /// graph is the offsets `[0, n]`.
    pub fn segment_max_pool_rows(&mut self, a: Var, offsets: Arc<Vec<usize>>) -> Var {
        let (n, d) = self.nodes[a.0].value.shape();
        check_offsets(&offsets, n);
        let b = offsets.len() - 1;
        let mut v = pooled_full(&mut self.pool, b, d, f32::NEG_INFINITY);
        let x = self.nodes[a.0].value.get();
        for s in 0..b {
            for r in offsets[s]..offsets[s + 1] {
                for c in 0..d {
                    if x.get(r, c) > v.get(s, c) {
                        v.set(s, c, x.get(r, c));
                    }
                }
            }
        }
        self.push(v, Op::SegmentMaxPoolRows(a.0, offsets))
    }

    /// Per-segment column-wise mean: each row of segment `s` contributes
    /// `x / n_s` with rows ascending, so output row `s` is bit-identical to
    /// that row range pooled as a single segment.
    pub fn segment_mean_pool_rows(&mut self, a: Var, offsets: Arc<Vec<usize>>) -> Var {
        let (n, d) = self.nodes[a.0].value.shape();
        check_offsets(&offsets, n);
        let b = offsets.len() - 1;
        let mut v = pooled_zeros(&mut self.pool, b, d);
        let x = self.nodes[a.0].value.get();
        for s in 0..b {
            let len = (offsets[s + 1] - offsets[s]) as f32;
            for r in offsets[s]..offsets[s + 1] {
                for c in 0..d {
                    v.set(s, c, v.get(s, c) + x.get(r, c) / len);
                }
            }
        }
        self.push(v, Op::SegmentMeanPoolRows(a.0, offsets))
    }

    /// Per-segment `m_sᵀ @ x_s` for row-aligned `m: (Σn, c)`, `x: (Σn, d)`,
    /// the `(c, d)` products stacked into `(B·c, d)`. This is the batched
    /// DiffPool assignment product: each segment is one call of the Strict
    /// `aᵀ @ b` kernel behind [`Tensor::matmul_tn_into`], so segment `s` of
    /// the output is bit-identical to `matmul(transpose(m_s), x_s)` on a
    /// per-graph tape, forward and backward.
    pub fn seg_matmul_tn(&mut self, m: Var, x: Var, offsets: Arc<Vec<usize>>) -> Var {
        let (n, c) = self.nodes[m.0].value.shape();
        let (nx, d) = self.nodes[x.0].value.shape();
        assert_eq!(n, nx, "seg_matmul_tn row mismatch: m has {n}, x has {nx}");
        check_offsets(&offsets, n);
        let b = offsets.len() - 1;
        let mut v = pooled_uninit(&mut self.pool, b * c, d);
        let (mv, xv) = (self.nodes[m.0].value.get().data(), self.nodes[x.0].value.get().data());
        for s in 0..b {
            let (lo, hi) = (offsets[s], offsets[s + 1]);
            let out = &mut v.data_mut()[s * c * d..(s + 1) * c * d];
            gemm_tn(hi - lo, c, d, &mv[lo * c..hi * c], &xv[lo * d..hi * d], out);
        }
        self.push(v, Op::SegMatmulTn(m.0, x.0, offsets))
    }

    /// Block-wise `a_s @ h_s` for uniform square blocks: `a: (B·c, c)`
    /// stacking `(c, c)` blocks and `h: (B·c, d)` stacking their right
    /// operands gives `(B·c, d)`. The batched coarsened-adjacency product of
    /// DiffPool's later stages: each block is one call of the Strict kernel
    /// behind [`Tensor::matmul_into`], so it is bit-identical per block to
    /// [`Tape::matmul`], forward and backward.
    pub fn seg_block_matmul(&mut self, a: Var, h: Var) -> Var {
        let (rows, c) = self.nodes[a.0].value.shape();
        let (hrows, d) = self.nodes[h.0].value.shape();
        assert_eq!(rows, hrows, "seg_block_matmul row mismatch: a has {rows}, h has {hrows}");
        assert!(
            c > 0 && rows % c == 0,
            "seg_block_matmul needs (B·{c}, {c}) blocks, got {rows} rows"
        );
        let mut v = pooled_uninit(&mut self.pool, rows, d);
        let (av, hv) = (self.nodes[a.0].value.get().data(), self.nodes[h.0].value.get().data());
        for s in 0..rows / c {
            let (a_s, h_s) = (&av[s * c * c..(s + 1) * c * c], &hv[s * c * d..(s + 1) * c * d]);
            gemm_nn(c, c, d, a_s, h_s, &mut v.data_mut()[s * c * d..(s + 1) * c * d]);
        }
        self.push(v, Op::SegBlockMatmul(a.0, h.0))
    }

    /// Sum of all elements -> scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = pooled_full(&mut self.pool, 1, 1, self.nodes[a.0].value.get().sum());
        self.push(v, Op::SumAll(a.0))
    }

    /// L2-normalise each row (used by the contrastive objective).
    pub fn l2_normalize_rows(&mut self, a: Var, eps: f32) -> Var {
        let (n, d) = self.nodes[a.0].value.shape();
        let mut v = pooled_uninit(&mut self.pool, n, d);
        let x = self.nodes[a.0].value.get();
        for r in 0..n {
            let norm = x.row(r).iter().map(|&t| t * t).sum::<f32>().sqrt().max(eps);
            for (o, &t) in v.row_mut(r).iter_mut().zip(x.row(r)) {
                *o = t / norm;
            }
        }
        self.push(v, Op::L2NormalizeRows(a.0, eps))
    }

    /// Mean cross-entropy between row logits and integer targets -> scalar.
    pub fn cross_entropy(&mut self, logits: Var, targets: Arc<Vec<usize>>) -> Var {
        let x = self.nodes[logits.0].value.get();
        let (n, d) = x.shape();
        assert_eq!(targets.len(), n, "cross_entropy target length");
        let mut loss = 0.0f32;
        let mut e = vec![0.0f32; d];
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < d, "target {t} out of range {d}");
            let row = x.row(r);
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            for (o, &v) in e.iter_mut().zip(row) {
                *o = v - m;
            }
            exact::exp_in_place(&mut e);
            let lse = m + e.iter().sum::<f32>().ln();
            loss += lse - row[t];
        }
        let v = pooled_full(&mut self.pool, 1, 1, loss / n as f32);
        self.push(v, Op::CrossEntropy(logits.0, targets))
    }

    // ---- compound helpers ----------------------------------------------

    /// `x @ w + b` with `b: (1, d_out)` broadcast.
    pub fn linear(&mut self, x: Var, w: Var, b: Var) -> Var {
        let xw = self.matmul(x, w);
        self.add_row_broadcast(xw, b)
    }
}

// ---- backward -----------------------------------------------------------

impl Op {
    /// The nodes whose values this op's arm in [`Tape::backward`] reads, at
    /// most two: inputs, or `out` (this op's own node) where the gradient is
    /// a function of the output. `requires` says which inputs take a
    /// gradient; no arm reads a value for an input that takes none. Every
    /// other arm reads at most its inputs' shapes, which survive
    /// [`Tape::release_since`].
    ///
    /// This is the release rule for both tape kinds, so it must match the
    /// arms below exactly: an op added or an arm changed there declares its
    /// reads here.
    fn backward_reads(&self, out: usize, requires: impl Fn(usize) -> bool) -> [Option<usize>; 2] {
        let when = |a: usize, v: usize| requires(a).then_some(v);
        match *self {
            // Each operand of a product feeds the other one's gradient.
            Op::Matmul(a, b)
            | Op::Mul(a, b)
            | Op::MulColBroadcast(a, b)
            | Op::SegMatmulTn(a, b, _)
            | Op::SegBlockMatmul(a, b) => [when(b, a), when(a, b)],
            Op::Relu(a)
            | Op::LeakyRelu(a, _)
            | Op::SegmentMaxPoolRows(a, _)
            | Op::CrossEntropy(a, _) => [when(a, a), None],
            Op::Tanh(a) | Op::Sigmoid(a) | Op::SoftmaxRows(a) | Op::SegmentSoftmax(a, _) => {
                [when(a, out), None]
            }
            Op::Elu(a, _) | Op::L2NormalizeRows(a, _) => [when(a, a), when(a, out)],
            Op::Leaf
            | Op::Spmm(..)
            | Op::Add(..)
            | Op::AddRowBroadcast(..)
            | Op::Scale(..)
            | Op::AddScalar(_)
            | Op::Transpose(_)
            | Op::ConcatCols(..)
            | Op::ConcatRows(..)
            | Op::GatherRows(..)
            | Op::ScatterAddRows(..)
            | Op::SegmentMeanPoolRows(..)
            | Op::SumAll(_) => [None, None],
        }
    }
}

impl Tape {
    fn acc_grad(&mut self, idx: usize, g: Tensor) {
        if !self.nodes[idx].requires {
            self.pool.give(g.into_vec());
            return;
        }
        match &mut self.nodes[idx].grad {
            Some(existing) => {
                existing.add_assign(&g);
                self.pool.give(g.into_vec());
            }
            slot @ None => *slot = Some(g),
        }
    }

    /// Backpropagate from scalar node `v`, filling gradients for the leaf
    /// nodes that participated in its computation.
    ///
    /// Only leaves retain their gradients ([`Tape::grad`] on an interior
    /// node returns `None` afterwards): once an interior node's gradient has
    /// been propagated to its inputs, its buffer is recycled into the pool —
    /// and wherever an input's gradient is the incoming gradient up to an
    /// elementwise transform, the buffer is transformed in place and *moved*
    /// rather than copied. Neither recycling nor moving changes any
    /// surviving value.
    ///
    /// Single-shot per tape: to differentiate several heads, combine them
    /// into one scalar (e.g. with [`Tape::add`]) before calling this.
    /// Calling `backward` a second time on the same tape re-propagates the
    /// existing gradients and produces meaningless sums. Panics on a
    /// scoring tape ([`Tape::scoring`]), whose values may have been released.
    pub fn backward(&mut self, v: Var) {
        assert!(!self.scoring, "backward on a forward-only scoring tape (Tape::scoring)");
        assert_eq!(self.nodes[v.0].value.shape(), (1, 1), "backward requires a scalar output");
        self.nodes[v.0].grad = Some(Tensor::scalar(1.0));
        for i in (0..=v.0).rev() {
            // Take the gradient out of its slot; every arm below consumes it
            // (leaves put it back, interior nodes move or recycle it).
            let mut g = match self.nodes[i].grad.take() {
                Some(g) => g,
                None => continue,
            };
            let op = self.nodes[i].op.clone();
            match op {
                Op::Leaf => {
                    self.nodes[i].grad = Some(g);
                }
                Op::Matmul(a, b) => {
                    if self.nodes[a].requires {
                        let bt = pooled_transpose(&mut self.pool, self.nodes[b].value.get());
                        let mut ga = pooled_uninit(&mut self.pool, g.rows(), bt.cols());
                        g.matmul_into(&bt, &mut ga);
                        self.pool.give(bt.into_vec());
                        self.acc_grad(a, ga);
                    }
                    if self.nodes[b].requires {
                        // gb = aᵀ @ g without materialising the transpose of
                        // the (tall) activation matrix.
                        let mut gb = pooled_uninit(
                            &mut self.pool,
                            self.nodes[a].value.get().cols(),
                            g.cols(),
                        );
                        self.nodes[a].value.get().matmul_tn_into(&g, &mut gb);
                        self.acc_grad(b, gb);
                    }
                    self.pool.give(g.into_vec());
                }
                Op::Spmm(csr, h) => {
                    // gh = adjᵀ @ g via the precomputed transpose index;
                    // bit-identical to the dense Matmul backward's
                    // `a.transpose().matmul(&g)`. The adjacency itself gets
                    // no gradient (it is a constant, not a tape node).
                    if self.nodes[h].requires {
                        let mut gh = pooled_uninit(&mut self.pool, csr.cols(), g.cols());
                        csr.transpose_matmul_dense_into(&g, &mut gh);
                        self.acc_grad(h, gh);
                    }
                    self.pool.give(g.into_vec());
                }
                Op::Add(a, b) => {
                    if self.nodes[b].requires {
                        let gb = pooled_copy(&mut self.pool, &g);
                        self.acc_grad(b, gb);
                    }
                    self.acc_grad(a, g);
                }
                Op::Mul(a, b) => {
                    if self.nodes[a].requires {
                        let ga =
                            pooled_zip(&mut self.pool, &g, self.nodes[b].value.get(), |x, y| x * y);
                        self.acc_grad(a, ga);
                    }
                    if self.nodes[b].requires {
                        g.zip_assign(self.nodes[a].value.get(), |x, y| x * y);
                    }
                    self.acc_grad(b, g);
                }
                Op::AddRowBroadcast(a, b) => {
                    if self.nodes[b].requires {
                        // Column sums, rows ascending per column.
                        let mut gb = pooled_zeros(&mut self.pool, 1, g.cols());
                        for r in 0..g.rows() {
                            for (o, &x) in gb.data_mut().iter_mut().zip(g.row(r)) {
                                *o += x;
                            }
                        }
                        self.acc_grad(b, gb);
                    }
                    self.acc_grad(a, g);
                }
                Op::MulColBroadcast(a, b) => {
                    let n = g.rows();
                    if self.nodes[b].requires {
                        // Row dot products, columns ascending.
                        let mut gb = pooled_uninit(&mut self.pool, n, 1);
                        let av = self.nodes[a].value.get();
                        for (r, o) in gb.data_mut().iter_mut().enumerate() {
                            *o = g
                                .row(r)
                                .iter()
                                .zip(av.row(r))
                                .fold(0.0, |dot, (&x, &y)| dot + x * y);
                        }
                        self.acc_grad(b, gb);
                    }
                    if self.nodes[a].requires {
                        let bv = self.nodes[b].value.get();
                        for r in 0..n {
                            let s = bv.get(r, 0);
                            for x in g.row_mut(r) {
                                *x *= s;
                            }
                        }
                    }
                    self.acc_grad(a, g);
                }
                Op::Scale(a, c) => {
                    if self.nodes[a].requires {
                        g.map_assign(|x| c * x);
                    }
                    self.acc_grad(a, g);
                }
                Op::AddScalar(a) => {
                    self.acc_grad(a, g);
                }
                Op::LeakyRelu(a, slope) => {
                    if self.nodes[a].requires {
                        g.zip_assign(self.nodes[a].value.get(), |gv, x| {
                            if x > 0.0 {
                                gv
                            } else {
                                gv * slope
                            }
                        });
                    }
                    self.acc_grad(a, g);
                }
                Op::Elu(a, alpha) => {
                    // dy/dx = 1 for x > 0, else y + alpha (since y = α(eˣ−1)).
                    if self.nodes[a].requires {
                        let x = self.nodes[a].value.get();
                        let y = self.nodes[i].value.get();
                        for ((gv, &xv), &yv) in g.data_mut().iter_mut().zip(x.data()).zip(y.data())
                        {
                            if xv <= 0.0 {
                                *gv *= yv + alpha;
                            }
                        }
                    }
                    self.acc_grad(a, g);
                }
                Op::Relu(a) => {
                    if self.nodes[a].requires {
                        g.zip_assign(
                            self.nodes[a].value.get(),
                            |gv, x| if x > 0.0 { gv } else { 0.0 },
                        );
                    }
                    self.acc_grad(a, g);
                }
                Op::Tanh(a) => {
                    if self.nodes[a].requires {
                        g.zip_assign(self.nodes[i].value.get(), |gv, y| gv * (1.0 - y * y));
                    }
                    self.acc_grad(a, g);
                }
                Op::Sigmoid(a) => {
                    if self.nodes[a].requires {
                        g.zip_assign(self.nodes[i].value.get(), |gv, y| gv * y * (1.0 - y));
                    }
                    self.acc_grad(a, g);
                }
                Op::SoftmaxRows(a) => {
                    if self.nodes[a].requires {
                        let n = g.rows();
                        let y = self.nodes[i].value.get();
                        for r in 0..n {
                            let dot: f32 =
                                g.row(r).iter().zip(y.row(r)).map(|(&gv, &yv)| gv * yv).sum();
                            for (x, &yv) in g.row_mut(r).iter_mut().zip(y.row(r)) {
                                *x = yv * (*x - dot);
                            }
                        }
                    }
                    self.acc_grad(a, g);
                }
                Op::Transpose(a) => {
                    if self.nodes[a].requires {
                        let ga = pooled_transpose(&mut self.pool, &g);
                        self.acc_grad(a, ga);
                    }
                    self.pool.give(g.into_vec());
                }
                Op::ConcatCols(a, b) => {
                    let ca = self.nodes[a].value.shape().1;
                    let (n, d) = g.shape();
                    if self.nodes[a].requires {
                        let mut ga = pooled_uninit(&mut self.pool, n, ca);
                        for r in 0..n {
                            ga.row_mut(r).copy_from_slice(&g.row(r)[..ca]);
                        }
                        self.acc_grad(a, ga);
                    }
                    if self.nodes[b].requires {
                        let mut gb = pooled_uninit(&mut self.pool, n, d - ca);
                        for r in 0..n {
                            gb.row_mut(r).copy_from_slice(&g.row(r)[ca..]);
                        }
                        self.acc_grad(b, gb);
                    }
                    self.pool.give(g.into_vec());
                }
                Op::ConcatRows(a, b) => {
                    let ra = self.nodes[a].value.shape().0;
                    let (n, d) = g.shape();
                    if self.nodes[a].requires {
                        let mut ga = pooled_uninit(&mut self.pool, ra, d);
                        ga.data_mut().copy_from_slice(&g.data()[..ra * d]);
                        self.acc_grad(a, ga);
                    }
                    if self.nodes[b].requires {
                        let mut gb = pooled_uninit(&mut self.pool, n - ra, d);
                        gb.data_mut().copy_from_slice(&g.data()[ra * d..]);
                        self.acc_grad(b, gb);
                    }
                    self.pool.give(g.into_vec());
                }
                Op::GatherRows(a, idx) => {
                    if self.nodes[a].requires {
                        let (ra, ca) = self.nodes[a].value.shape();
                        let mut ga = pooled_zeros(&mut self.pool, ra, ca);
                        for (r, &src) in idx.iter().enumerate() {
                            for (o, &gv) in ga.row_mut(src).iter_mut().zip(g.row(r)) {
                                *o += gv;
                            }
                        }
                        self.acc_grad(a, ga);
                    }
                    self.pool.give(g.into_vec());
                }
                Op::ScatterAddRows(a, idx) => {
                    if self.nodes[a].requires {
                        let d = g.cols();
                        let mut ga = pooled_uninit(&mut self.pool, idx.len(), d);
                        for (r, &src) in idx.iter().enumerate() {
                            ga.row_mut(r).copy_from_slice(g.row(src));
                        }
                        self.acc_grad(a, ga);
                    }
                    self.pool.give(g.into_vec());
                }
                Op::SegmentSoftmax(a, seg) => {
                    if self.nodes[a].requires {
                        let y = self.nodes[i].value.get();
                        let n_seg = seg.iter().copied().max().map_or(0, |m| m + 1);
                        let mut dot = vec![0.0f32; n_seg];
                        for (r, &s) in seg.iter().enumerate() {
                            dot[s] += g.get(r, 0) * y.get(r, 0);
                        }
                        for (r, &s) in seg.iter().enumerate() {
                            let gv = g.get(r, 0);
                            g.set(r, 0, y.get(r, 0) * (gv - dot[s]));
                        }
                    }
                    self.acc_grad(a, g);
                }
                Op::SegmentMaxPoolRows(a, offsets) => {
                    if self.nodes[a].requires {
                        let (n, d) = self.nodes[a].value.shape();
                        let mut ga = pooled_zeros(&mut self.pool, n, d);
                        let x = self.nodes[a].value.get();
                        for s in 0..offsets.len() - 1 {
                            let (lo, hi) = (offsets[s], offsets[s + 1]);
                            for c in 0..d {
                                // Argmax rescan with the forward's tie-break:
                                // the lowest row wins.
                                let mut best = lo;
                                for r in lo + 1..hi {
                                    if x.get(r, c) > x.get(best, c) {
                                        best = r;
                                    }
                                }
                                ga.set(best, c, g.get(s, c));
                            }
                        }
                        self.acc_grad(a, ga);
                    }
                    self.pool.give(g.into_vec());
                }
                Op::SegmentMeanPoolRows(a, offsets) => {
                    if self.nodes[a].requires {
                        let (n, d) = self.nodes[a].value.shape();
                        let mut ga = pooled_uninit(&mut self.pool, n, d);
                        for s in 0..offsets.len() - 1 {
                            let len = (offsets[s + 1] - offsets[s]) as f32;
                            for r in offsets[s]..offsets[s + 1] {
                                for c in 0..d {
                                    ga.set(r, c, g.get(s, c) / len);
                                }
                            }
                        }
                        self.acc_grad(a, ga);
                    }
                    self.pool.give(g.into_vec());
                }
                Op::SegMatmulTn(m, x, offsets) => {
                    let (c, d) = (self.nodes[m].value.shape().1, self.nodes[x].value.shape().1);
                    let n = *offsets.last().expect("offsets were checked non-empty");
                    if self.nodes[m].requires {
                        // dm_s = (g_s @ x_sᵀ)ᵀ: the per-graph tape's Matmul
                        // backward `g @ bᵀ` (zeros of g skipped), then the
                        // transpose backward's pure copy.
                        let longest = offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
                        let mut xt = self.pool.take_any(d * longest);
                        let mut prod = self.pool.take_any(c * longest);
                        let mut gm = pooled_uninit(&mut self.pool, n, c);
                        let xv = self.nodes[x].value.get().data();
                        for s in 0..offsets.len() - 1 {
                            let (lo, len) = (offsets[s], offsets[s + 1] - offsets[s]);
                            let g_s = &g.data()[s * c * d..(s + 1) * c * d];
                            let (xt, prod) = (&mut xt[..d * len], &mut prod[..c * len]);
                            transpose_into(len, d, &xv[lo * d..(lo + len) * d], xt);
                            gemm_nn(c, d, len, g_s, xt, prod);
                            transpose_into(
                                c,
                                len,
                                prod,
                                &mut gm.data_mut()[lo * c..(lo + len) * c],
                            );
                        }
                        self.pool.give(xt);
                        self.pool.give(prod);
                        self.acc_grad(m, gm);
                    }
                    if self.nodes[x].requires {
                        // dx_s = m_s @ g_s — the per-graph transpose node's
                        // `mtᵀ @ g`, whose zero skips are those of m.
                        let mut gx = pooled_uninit(&mut self.pool, n, d);
                        let mv = self.nodes[m].value.get().data();
                        for s in 0..offsets.len() - 1 {
                            let (lo, hi) = (offsets[s], offsets[s + 1]);
                            let g_s = &g.data()[s * c * d..(s + 1) * c * d];
                            let out = &mut gx.data_mut()[lo * d..hi * d];
                            gemm_nn(hi - lo, c, d, &mv[lo * c..hi * c], g_s, out);
                        }
                        self.acc_grad(x, gx);
                    }
                    self.pool.give(g.into_vec());
                }
                Op::SegBlockMatmul(a, h) => {
                    let (rows, c) = self.nodes[a].value.shape();
                    let d = self.nodes[h].value.shape().1;
                    if self.nodes[a].requires {
                        // da_s = g_s @ h_sᵀ — the per-graph Matmul backward's
                        // left product over the transposed right operand.
                        let mut ht = self.pool.take_any(d * c);
                        let mut ga = pooled_uninit(&mut self.pool, rows, c);
                        let hv = self.nodes[h].value.get().data();
                        for s in 0..rows / c {
                            let blk = s * c * d..(s + 1) * c * d;
                            transpose_into(c, d, &hv[blk.clone()], &mut ht);
                            let out = &mut ga.data_mut()[s * c * c..(s + 1) * c * c];
                            gemm_nn(c, d, c, &g.data()[blk], &ht, out);
                        }
                        self.pool.give(ht);
                        self.acc_grad(a, ga);
                    }
                    if self.nodes[h].requires {
                        // dh_s = a_sᵀ @ g_s — the per-graph `aᵀ @ g`.
                        let mut gh = pooled_uninit(&mut self.pool, rows, d);
                        let av = self.nodes[a].value.get().data();
                        for s in 0..rows / c {
                            let (a_s, blk) =
                                (&av[s * c * c..(s + 1) * c * c], s * c * d..(s + 1) * c * d);
                            gemm_tn(c, c, d, a_s, &g.data()[blk.clone()], &mut gh.data_mut()[blk]);
                        }
                        self.acc_grad(h, gh);
                    }
                    self.pool.give(g.into_vec());
                }
                Op::SumAll(a) => {
                    if self.nodes[a].requires {
                        let (n, d) = self.nodes[a].value.shape();
                        let ga = pooled_full(&mut self.pool, n, d, g.item());
                        self.acc_grad(a, ga);
                    }
                    self.pool.give(g.into_vec());
                }
                Op::L2NormalizeRows(a, eps) => {
                    if self.nodes[a].requires {
                        let (n, _d) = g.shape();
                        let x = self.nodes[a].value.get();
                        let y = self.nodes[i].value.get();
                        for r in 0..n {
                            let norm = x.row(r).iter().map(|&t| t * t).sum::<f32>().sqrt().max(eps);
                            let dot: f32 =
                                g.row(r).iter().zip(y.row(r)).map(|(&gv, &yv)| gv * yv).sum();
                            for (o, &yv) in g.row_mut(r).iter_mut().zip(y.row(r)) {
                                *o = (*o - yv * dot) / norm;
                            }
                        }
                    }
                    self.acc_grad(a, g);
                }
                Op::CrossEntropy(a, targets) => {
                    if self.nodes[a].requires {
                        let (n, d) = self.nodes[a].value.shape();
                        let scale = g.item() / n as f32;
                        let mut ga = pooled_uninit(&mut self.pool, n, d);
                        softmax_rows_into(self.nodes[a].value.get().data(), d, ga.data_mut());
                        for (r, &t) in targets.iter().enumerate() {
                            for c in 0..d {
                                let p = ga.get(r, c);
                                let onehot = if c == t { 1.0 } else { 0.0 };
                                ga.set(r, c, (p - onehot) * scale);
                            }
                        }
                        self.acc_grad(a, ga);
                    }
                    self.pool.give(g.into_vec());
                }
            }
        }
    }
}

/// Validate a segment-offset index: `offsets[0] == 0`, strictly ascending
/// (every segment non-empty, matching the per-graph pooling ops' non-empty
/// requirement), ending at `rows`.
fn check_offsets(offsets: &[usize], rows: usize) {
    assert!(!offsets.is_empty(), "segment offsets must not be empty");
    assert_eq!(offsets[0], 0, "segment offsets must start at 0");
    assert_eq!(*offsets.last().unwrap(), rows, "segment offsets must end at the row count {rows}");
    for w in offsets.windows(2) {
        assert!(w[0] < w[1], "segments must be non-empty and ascending");
    }
}

/// Numerically stable softmax of `input` written into `out`, for callers
/// holding plain logits: [`Tape::softmax_rows`]'s kernel on one row.
pub fn softmax_into(input: &[f32], out: &mut [f32]) {
    softmax_rows_into(input, input.len(), out);
}

/// Numerically stable softmax of each `d`-wide row of `input`, written
/// into `out`. Each row's max is subtracted into `out`, one `exp` pass
/// covers the whole block, and each row is then summed and scaled. Every
/// `exp` lane computes the scalar lane's bits, so a row's result does not
/// depend on the rows beside it; the single pass only keeps narrow rows'
/// tails off the scalar lane.
fn softmax_rows_into(input: &[f32], d: usize, out: &mut [f32]) {
    debug_assert_eq!(input.len(), out.len(), "softmax length mismatch");
    if d == 0 {
        return;
    }
    for (o, x) in out.chunks_exact_mut(d).zip(input.chunks_exact(d)) {
        let m = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for (o, &x) in o.iter_mut().zip(x) {
            *o = x - m;
        }
    }
    exact::exp_in_place(out);
    for o in out.chunks_exact_mut(d) {
        let mut sum = 0.0;
        for &v in o.iter() {
            sum += v;
        }
        let inv = 1.0 / sum.max(1e-30);
        for v in o {
            *v *= inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_backward_matches_manual() {
        // f = sum(A @ B); df/dA = 1 @ B^T, df/dB = A^T @ 1.
        let mut t = Tape::new();
        let a = t.leaf(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = t.leaf(Tensor::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        let c = t.matmul(a, b);
        let loss = t.sum_all(c);
        t.backward(loss);
        let ga = t.grad(a).unwrap();
        // 1s @ B^T: each row = [5+6, 7+8] = [11, 15]
        assert_eq!(ga.data(), &[11.0, 15.0, 11.0, 15.0]);
        let gb = t.grad(b).unwrap();
        // A^T @ 1s: rows [1+3, ...] = [[4,4],[6,6]]
        assert_eq!(gb.data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn spmm_matches_dense_matmul_and_backward() {
        let adj_dense = Tensor::from_vec(3, 3, vec![0.5, 0.0, 0.2, 0.0, 1.0, 0.0, 0.3, 0.0, 0.4]);
        let h_init = Tensor::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.25 - 0.5);

        // Dense reference: adjacency as a constant leaf.
        let mut td = Tape::new();
        let adj_leaf = td.leaf(adj_dense.clone());
        let hd = td.leaf(h_init.clone());
        let outd = td.matmul(adj_leaf, hd);
        let lossd = td.sum_all(outd);
        td.backward(lossd);

        // Sparse path.
        let csr = Arc::new(Csr::from_dense(&adj_dense));
        let mut ts = Tape::new();
        let hs = ts.leaf(h_init.clone());
        let outs = ts.spmm(&csr, hs);
        let losss = ts.sum_all(outs);
        ts.backward(losss);

        assert_eq!(td.value(outd).to_bits_vec(), ts.value(outs).to_bits_vec());
        assert_eq!(td.grad(hd).unwrap().to_bits_vec(), ts.grad(hs).unwrap().to_bits_vec());
    }

    #[test]
    fn pool_reuse_keeps_values_bit_identical() {
        // Three generations of tape reuse through the same pool must
        // produce exactly the same forward values and gradients as a fresh
        // tape — reused buffers are fully overwritten or zeroed.
        let x0 = Tensor::from_fn(4, 3, |r, c| (r as f32 - 1.0) * 0.7 + c as f32 * 0.3);
        let w0 = Tensor::from_fn(3, 2, |r, c| 0.1 * (r * 2 + c) as f32 - 0.2);
        let run = |tape: &mut Tape| -> (Vec<u32>, Vec<u32>) {
            let x = tape.leaf_copy(&x0);
            let w = tape.leaf_copy(&w0);
            let h = tape.matmul(x, w);
            let h = tape.tanh(h);
            let s = tape.softmax_rows(h);
            let p = tape.segment_mean_pool_rows(s, Arc::new(vec![0, 4]));
            let loss = tape.sum_all(p);
            tape.backward(loss);
            (tape.value(s).to_bits_vec(), tape.grad(w).unwrap().to_bits_vec())
        };
        let mut fresh = Tape::new();
        let expected = run(&mut fresh);
        let mut pool = BufferPool::new();
        for generation in 0..3 {
            let mut tape = Tape::with_pool(pool);
            let got = run(&mut tape);
            assert_eq!(got, expected, "value drift in pool generation {generation}");
            pool = tape.into_pool();
            assert!(pool.buffers() > 0, "pool should retain buffers");
        }
    }

    /// A small chain on either kind of tape: a parameter leaf, a constant,
    /// and three interior nodes. Returns `(w, x, xw, h, s)`; `s` is the
    /// chain's output and the natural var to keep. A training tape's
    /// backward reads `h` (the tanh output) and `s` (the softmax output)
    /// but not `xw`.
    fn release_chain(tape: &mut Tape) -> (Var, Var, Var, Var, Var) {
        let w = tape.leaf_copy(&Tensor::from_fn(3, 2, |r, c| 0.1 * (r * 2 + c) as f32 - 0.2));
        let x =
            tape.constant_copy(&Tensor::from_fn(4, 3, |r, c| (r as f32 - 1.0) * 0.7 + c as f32));
        let xw = tape.matmul(x, w);
        let h = tape.tanh(xw);
        let s = tape.softmax_rows(h);
        (w, x, xw, h, s)
    }

    fn is_released(tape: &Tape, v: Var, shape: (usize, usize)) -> bool {
        matches!(tape.nodes[v.0].value, Value::Released(r, c) if (r, c) == shape)
    }

    #[test]
    fn release_since_recycles_dead_values_and_keeps_the_rest() {
        let mut plain = Tape::with_pool(BufferPool::new());
        let (w0, x0, _, _, s0) = release_chain(&mut plain);
        let mut tape = Tape::scoring(BufferPool::new());
        let (w, x, xw, h, s) = release_chain(&mut tape);
        let parked = tape.pool.buffers();
        tape.release_since(0, &[s]);
        // The matmul and tanh outputs went back, keeping their shapes; the
        // kept output and both leaves are untouched.
        assert_eq!(tape.pool.buffers(), parked + 2, "two dead values recycled");
        assert!(is_released(&tape, xw, (4, 2)) && is_released(&tape, h, (4, 2)));
        assert_eq!(tape.value(s).to_bits_vec(), plain.value(s0).to_bits_vec());
        assert_eq!(tape.value(w).to_bits_vec(), plain.value(w0).to_bits_vec());
        assert_eq!(tape.value(x).to_bits_vec(), plain.value(x0).to_bits_vec());
        // A second release finds nothing left to give.
        tape.release_since(0, &[s]);
        assert_eq!(tape.pool.buffers(), parked + 2);
        // Values recorded before the mark are out of range.
        let mark = tape.len();
        let t = tape.tanh(s);
        tape.release_since(mark, &[]);
        assert!(is_released(&tape, t, (4, 2)));
        assert_eq!(tape.value(s).to_bits_vec(), plain.value(s0).to_bits_vec());
    }

    /// Records every [`Op`] variant on `tape` and returns the scalar loss
    /// and the parameter leaves. Each value a backward arm reads is read by
    /// that arm alone (other consumers read nothing), so any one read
    /// missing from [`Op::backward_reads`] lets that value go and the
    /// backward that needs it panics.
    fn every_op_chain(tape: &mut Tape) -> (Var, Vec<Var>) {
        let x = tape.constant_copy(&seg_fixture(6, 4, 1));
        let mask = tape.constant_copy(&seg_fixture(6, 3, 2));
        let adj = Arc::new(Csr::from_dense(&seg_fixture(6, 6, 3)));
        let [w, bias, col, w2, v] = [(4, 3), (1, 3), (6, 1), (6, 3), (6, 1)]
            .map(|(r, c)| tape.leaf_copy(&seg_fixture(r, c, 10 + r as u32 + c as u32)));
        // A constant-only subtree: a product reads its operand only for
        // the other side's gradient.
        let xs = tape.tanh(x);
        let h = tape.matmul(xs, w);
        let h = tape.add_row_broadcast(h, bias);
        let h2 = tape.add_scalar(h, 0.0);
        let r = tape.relu(h);
        let lr = tape.leaky_relu(h2, 0.1);
        let e = tape.elu(lr, 1.0);
        let e = tape.add_scalar(e, 0.0);
        let t = tape.tanh(r);
        let t = tape.scale(t, 1.5);
        let sg = tape.sigmoid(e);
        let sg = tape.scale(sg, 2.0);
        let m = tape.mul(t, sg);
        let m = tape.mul(m, mask);
        let a = tape.add(m, r);
        let one_minus = tape.one_minus(a);
        let colv = tape.scale(col, 1.0);
        let mc = tape.mul_col_broadcast(one_minus, colv);
        let sm = tape.softmax_rows(mc);
        let sm = tape.add_scalar(sm, 0.0);
        let tr = tape.transpose(sm);
        let w2v = tape.add_scalar(w2, 0.0);
        let p = tape.matmul(tr, w2v);
        let tr2 = tape.transpose(sm);
        let sb = tape.seg_block_matmul(p, tr2);
        let cc = tape.concat_cols(sm, sg);
        let g = tape.gather_rows(cc, Arc::new(vec![0, 2, 2, 5]));
        let sa = tape.scatter_add_rows(g, Arc::new(vec![1, 0, 1, 3]), 6);
        let sa = tape.add_scalar(sa, 0.5);
        let offsets = Arc::new(vec![0, 2, 6]);
        let max = tape.segment_max_pool_rows(sa, offsets.clone());
        let mean = tape.segment_mean_pool_rows(sa, offsets.clone());
        let cr = tape.concat_rows(max, mean);
        let l2 = tape.l2_normalize_rows(cr, 1e-6);
        let l2 = tape.scale(l2, 3.0);
        let ce = tape.cross_entropy(l2, Arc::new(vec![0, 3, 5, 1]));
        let smx = tape.seg_matmul_tn(sm, cc, offsets);
        let sa2 = tape.add_scalar(sa, 0.0);
        let scores = tape.matmul(sa2, v);
        let ss = tape.segment_softmax(scores, Arc::new(vec![0, 0, 1, 1, 1, 1]));
        let ss = tape.scale(ss, 1.0);
        let sp = tape.spmm(&adj, sm);
        let mut loss = ce;
        for part in [smx, sb, ss, sp] {
            let sum = tape.sum_all(part);
            loss = tape.add(loss, sum);
        }
        (loss, vec![w, bias, col, w2, v])
    }

    /// The release rule on a training tape: release everything it allows,
    /// then backpropagate. Every gradient must be bit-equal to an identical
    /// twin tape that released nothing; a backward read of a released
    /// value panics.
    #[test]
    fn release_since_keeps_exactly_what_backward_reads() {
        let mut twin = Tape::with_pool(BufferPool::new());
        let (loss0, leaves0) = every_op_chain(&mut twin);
        twin.backward(loss0);

        let mut tape = Tape::with_pool(BufferPool::new());
        let (loss, leaves) = every_op_chain(&mut tape);
        let parked = tape.pool.buffers();
        tape.release_since(0, &[]);
        let released = tape.nodes.iter().filter(|n| matches!(n.value, Value::Released(..))).count();
        assert_eq!(tape.pool.buffers(), parked + released);
        assert!(released >= 20, "only {released} of {} values released", tape.len());
        tape.backward(loss);
        for (i, (&v, &v0)) in leaves.iter().zip(&leaves0).enumerate() {
            let got = tape.grad(v).expect("leaf gradient").to_bits_vec();
            assert_eq!(got, twin.grad(v0).unwrap().to_bits_vec(), "leaf {i} gradient moved");
        }

        // A scoring tape has no backward and releases every non-leaf.
        let mut tape = Tape::scoring(BufferPool::new());
        every_op_chain(&mut tape);
        tape.release_since(0, &[]);
        assert!(tape
            .nodes
            .iter()
            .all(|n| matches!(n.op, Op::Leaf) ^ matches!(n.value, Value::Released(..))));
    }

    /// Any read of a released value's data panics, on both tape kinds and
    /// for a GEMM and an elementwise consumer alike: no op ever sees a
    /// missing buffer as a short or empty one.
    #[test]
    #[should_panic(expected = "read of a released (4, 2) tape value")]
    fn an_op_consuming_a_released_value_panics() {
        type Consume = fn(&mut Tape, Var, Var);
        let consumers: [(&str, Consume); 2] = [
            ("matmul", |t, xw, w| {
                let wt = t.transpose(w);
                t.matmul(xw, wt);
            }),
            ("add", |t, xw, _| {
                t.add(xw, xw);
            }),
        ];
        for scoring in [true, false] {
            for (what, consume) in consumers {
                let pool = BufferPool::new();
                let mut tape = if scoring { Tape::scoring(pool) } else { Tape::with_pool(pool) };
                let (w, _, xw, _, s) = release_chain(&mut tape);
                tape.release_since(0, &[s]);
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    consume(&mut tape, xw, w)
                }));
                let msg = caught.expect_err(what).downcast::<String>().unwrap();
                assert!(msg.starts_with("read of a released"), "{what}, scoring {scoring}: {msg}");
            }
        }
        // The same read, uncaught, on a training tape.
        let mut tape = Tape::with_pool(BufferPool::new());
        let (_, _, xw, _, s) = release_chain(&mut tape);
        tape.release_since(0, &[s]);
        tape.tanh(xw);
    }

    #[test]
    #[should_panic(expected = "forward-only scoring tape")]
    fn backward_on_a_scoring_tape_panics() {
        let mut tape = Tape::scoring(BufferPool::new());
        let (.., s) = release_chain(&mut tape);
        let loss = tape.sum_all(s);
        tape.backward(loss);
    }

    #[test]
    fn pool_stats_track_hits_misses_and_tape_ops() {
        let x0 = Tensor::from_fn(4, 3, |r, c| (r + c) as f32 * 0.5);
        let w0 = Tensor::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.1);
        let run = |tape: &mut Tape| {
            let x = tape.leaf_copy(&x0);
            let w = tape.leaf_copy(&w0);
            let h = tape.matmul(x, w);
            let h = tape.tanh(h);
            let loss = tape.sum_all(h);
            tape.backward(loss);
        };
        let mut tape = Tape::with_pool(BufferPool::new());
        run(&mut tape);
        let ops = tape.len() as u64;
        let pool = tape.into_pool();
        let first = pool.stats();
        // A cold pool misses on every forward take (backward recycles
        // interior gradients mid-pass, so some hits appear even here).
        assert!(first.misses > 0);
        assert!(first.allocated_bytes >= first.misses * size_of::<f32>() as u64);
        assert_eq!(first.tape_ops, ops);
        assert!(first.high_water_buffers > 0);

        // A second identical pass over the recycled pool is served from it.
        let mut tape = Tape::with_pool(pool);
        run(&mut tape);
        let pool = tape.into_pool();
        let second = pool.stats();
        assert!(second.hits > 0, "warm pool must serve hits");
        assert_eq!(second.misses, first.misses, "warm pass allocates nothing new");
        assert_eq!(second.allocated_bytes, first.allocated_bytes);
        assert_eq!(second.tape_ops, 2 * ops);
        assert!(second.high_water_buffers >= first.high_water_buffers);
    }

    /// Packed batches alternate between row counts on either side of a
    /// class boundary, as `Σn × 64` activations do: one set of buffers
    /// serves both, so the pool's footprint stays within 1.3× its live
    /// peak. Separate power-of-two classes for each side take 2.8×.
    #[test]
    fn pool_footprint_follows_the_live_peak() {
        let w0 = Tensor::from_fn(64, 64, |r, c| ((r * 64 + c) % 7) as f32 * 0.01 - 0.03);
        let mut pool = BufferPool::new();
        for rows in [1000, 1100, 1000, 1100, 1000, 1100] {
            let x0 = Tensor::from_fn(rows, 64, |r, c| ((r + c) % 5) as f32 * 0.1 - 0.2);
            let mut tape = Tape::with_pool(pool);
            let x = tape.constant_copy(&x0);
            let w = tape.leaf_copy(&w0);
            let h = tape.matmul(x, w);
            let h = tape.tanh(h);
            let h = tape.matmul(h, w);
            let h = tape.relu(h);
            let loss = tape.sum_all(h);
            tape.backward(loss);
            pool = tape.into_pool();
        }
        let stats = pool.stats();
        assert!(
            stats.allocated_bytes * 10 <= stats.peak_live_bytes * 13,
            "pool holds {} B for a live peak of {} B",
            stats.allocated_bytes,
            stats.peak_live_bytes
        );
    }

    /// The live peak counts bytes handed out and not yet given back. A
    /// buffer made outside the pool and given to it (a `Tape::leaf` value,
    /// backward's seed gradient) never drives the count below zero, so it
    /// cannot hide later takes.
    #[test]
    fn peak_live_bytes_counts_what_is_handed_out() {
        let mut pool = BufferPool::new();
        let a = pool.take_any(100);
        let b = pool.take_zeroed(50);
        pool.give(a);
        let c = pool.take_any(20);
        assert_eq!(pool.stats().peak_live_bytes, 600);
        pool.give(vec![0.0; 1000]);
        pool.give(b);
        pool.give(c);
        let d = pool.take_any(160);
        assert_eq!(pool.stats().peak_live_bytes, 640);
        pool.give(d);
    }

    /// One `exp` pass over a block of rows gives every row the bits of its
    /// own softmax, whatever the width leaves to the scalar lane.
    #[test]
    fn block_softmax_matches_row_softmax_bitwise() {
        for d in 1..=20 {
            for rows in 1..=9 {
                let x: Vec<f32> =
                    (0..rows * d).map(|i| ((i * 37 % 23) as f32 - 11.0) * 0.73).collect();
                let mut block = vec![0.0; rows * d];
                softmax_rows_into(&x, d, &mut block);
                let mut row = vec![0.0; d];
                for (r, got) in block.chunks_exact(d).enumerate() {
                    softmax_into(&x[r * d..][..d], &mut row);
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(got), bits(&row), "width {d}, {rows} rows, row {r}");
                }
            }
        }
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]));
        let s = t.softmax_rows(a);
        for r in 0..2 {
            let sum: f32 = t.value(s).row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn segment_softmax_normalises_within_segments() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::from_vec(5, 1, vec![1.0, 2.0, 3.0, 0.5, 0.5]));
        let seg = Arc::new(vec![0usize, 0, 1, 1, 1]);
        let s = t.segment_softmax(a, seg);
        let v = t.value(s);
        assert!((v.get(0, 0) + v.get(1, 0) - 1.0).abs() < 1e-6);
        assert!((v.get(2, 0) + v.get(3, 0) + v.get(4, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_near_zero() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::from_vec(2, 2, vec![20.0, -20.0, -20.0, 20.0]));
        let loss = t.cross_entropy(a, Arc::new(vec![0, 1]));
        assert!(t.value(loss).item() < 1e-5);
    }

    #[test]
    fn cross_entropy_uniform_is_log_c() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::zeros(3, 4));
        let loss = t.cross_entropy(a, Arc::new(vec![0, 1, 2]));
        assert!((t.value(loss).item() - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn gather_scatter_roundtrip_gradient() {
        // scatter_add(gather(x, idx), idx) accumulates each row idx-count
        // times; its gradient w.r.t. x should reflect multiplicity.
        let mut t = Tape::new();
        let x = t.leaf(Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let idx = Arc::new(vec![0usize, 0, 2]);
        let gathered = t.gather_rows(x, idx.clone());
        let scattered = t.scatter_add_rows(gathered, idx, 3);
        let loss = t.sum_all(scattered);
        t.backward(loss);
        let gx = t.grad(x).unwrap();
        // Row 0 used twice, row 2 once, row 1 never.
        assert_eq!(gx.data(), &[2.0, 2.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn one_minus_value_and_gradient() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::from_vec(1, 2, vec![0.25, 0.75]));
        let y = t.one_minus(x);
        assert_eq!(t.value(y).data(), &[0.75, 0.25]);
        let loss = t.sum_all(y);
        t.backward(loss);
        assert_eq!(t.grad(x).unwrap().data(), &[-1.0, -1.0]);
    }

    fn seg_fixture(rows: usize, cols: usize, salt: u32) -> Tensor {
        Tensor::from_fn(rows, cols, |r, c| {
            let h = (r as u32)
                .wrapping_mul(2654435761)
                .wrapping_add((c as u32).wrapping_mul(40503))
                .wrapping_add(salt);
            if h.is_multiple_of(5) {
                0.0
            } else {
                ((h % 1000) as f32 - 500.0) * 1.9e-3
            }
        })
    }

    /// Each segment-aware op must produce, per segment, exactly the bits of
    /// that segment computed alone — that is the whole contract that lets
    /// the batched encoder replace the per-account tapes. The pools are
    /// checked against a plain column max and an ascending `x / len` sum,
    /// and their gradients against the segment packed on its own.
    #[test]
    fn segment_pools_match_per_segment_pools_bitwise() {
        let offsets: Vec<usize> = vec![0, 3, 4, 9];
        let x0 = seg_fixture(9, 4, 7);
        let pool = |t: &mut Tape, mode: &str, x: Var, offsets: Vec<usize>| {
            if mode == "max" {
                t.segment_max_pool_rows(x, Arc::new(offsets))
            } else {
                t.segment_mean_pool_rows(x, Arc::new(offsets))
            }
        };
        for mode in ["max", "mean"] {
            let mut tb = Tape::new();
            let xb = tb.leaf(x0.clone());
            let pooled = pool(&mut tb, mode, xb, offsets.clone());
            let lb = tb.sum_all(pooled);
            tb.backward(lb);
            for s in 0..offsets.len() - 1 {
                let (lo, hi) = (offsets[s], offsets[s + 1]);
                let want: Vec<u32> = (0..4)
                    .map(|c| {
                        let column = (lo..hi).map(|r| x0.get(r, c));
                        let len = (hi - lo) as f32;
                        if mode == "max" {
                            column.fold(f32::NEG_INFINITY, |m, x| if x > m { x } else { m })
                        } else {
                            column.fold(0.0, |acc, x| acc + x / len)
                        }
                        .to_bits()
                    })
                    .collect();
                assert_eq!(
                    tb.value(pooled).row(s).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want,
                    "{mode} forward segment {s}"
                );
                let mut tg = Tape::new();
                let seg = Tensor::from_fn(hi - lo, 4, |r, c| x0.get(lo + r, c));
                let xg = tg.leaf(seg);
                let pg = pool(&mut tg, mode, xg, vec![0, hi - lo]);
                let lg = tg.sum_all(pg);
                tg.backward(lg);
                let got: Vec<u32> = (lo..hi)
                    .flat_map(|r| tb.grad(xb).unwrap().row(r).iter().map(|v| v.to_bits()))
                    .collect();
                assert_eq!(got, tg.grad(xg).unwrap().to_bits_vec(), "{mode} gradient segment {s}");
            }
        }
    }

    #[test]
    fn seg_matmul_tn_matches_transpose_matmul_bitwise() {
        let offsets: Vec<usize> = vec![0, 2, 7, 8];
        let (c, d) = (3, 4);
        let m0 = seg_fixture(8, c, 11);
        let x0 = seg_fixture(8, d, 12);
        let mut tb = Tape::new();
        let mb = tb.leaf(m0.clone());
        let xb = tb.leaf(x0.clone());
        let out = tb.seg_matmul_tn(mb, xb, Arc::new(offsets.clone()));
        let lb = tb.sum_all(out);
        tb.backward(lb);
        for s in 0..offsets.len() - 1 {
            let (lo, hi) = (offsets[s], offsets[s + 1]);
            let mut tg = Tape::new();
            let ms = tg.leaf(Tensor::from_fn(hi - lo, c, |r, cc| m0.get(lo + r, cc)));
            let xs = tg.leaf(Tensor::from_fn(hi - lo, d, |r, cc| x0.get(lo + r, cc)));
            let mt = tg.transpose(ms);
            let prod = tg.matmul(mt, xs);
            let lg = tg.sum_all(prod);
            tg.backward(lg);
            let got_vals: Vec<u32> = (0..c)
                .flat_map(|i| tb.value(out).row(s * c + i).iter().map(|v| v.to_bits()))
                .collect();
            assert_eq!(got_vals, tg.value(prod).to_bits_vec(), "forward segment {s}");
            for (leaf_b, leaf_g, what) in [(mb, ms, "m"), (xb, xs, "x")] {
                let got: Vec<u32> = (lo..hi)
                    .flat_map(|r| tb.grad(leaf_b).unwrap().row(r).iter().map(|v| v.to_bits()))
                    .collect();
                assert_eq!(got, tg.grad(leaf_g).unwrap().to_bits_vec(), "{what} grad segment {s}");
            }
        }
    }

    #[test]
    fn seg_block_matmul_matches_matmul_bitwise() {
        let (blocks, c, d) = (3, 4, 5);
        let a0 = seg_fixture(blocks * c, c, 21);
        let h0 = seg_fixture(blocks * c, d, 22);
        let mut tb = Tape::new();
        let ab = tb.leaf(a0.clone());
        let hb = tb.leaf(h0.clone());
        let out = tb.seg_block_matmul(ab, hb);
        let lb = tb.sum_all(out);
        tb.backward(lb);
        for s in 0..blocks {
            let lo = s * c;
            let mut tg = Tape::new();
            let asg = tg.leaf(Tensor::from_fn(c, c, |r, cc| a0.get(lo + r, cc)));
            let hsg = tg.leaf(Tensor::from_fn(c, d, |r, cc| h0.get(lo + r, cc)));
            let prod = tg.matmul(asg, hsg);
            let lg = tg.sum_all(prod);
            tg.backward(lg);
            let got_vals: Vec<u32> = (0..c)
                .flat_map(|i| tb.value(out).row(lo + i).iter().map(|v| v.to_bits()))
                .collect();
            assert_eq!(got_vals, tg.value(prod).to_bits_vec(), "forward block {s}");
            for (leaf_b, leaf_g, what) in [(ab, asg, "a"), (hb, hsg, "h")] {
                let got: Vec<u32> = (lo..lo + c)
                    .flat_map(|r| tb.grad(leaf_b).unwrap().row(r).iter().map(|v| v.to_bits()))
                    .collect();
                assert_eq!(got, tg.grad(leaf_g).unwrap().to_bits_vec(), "{what} grad block {s}");
            }
        }
    }

    /// `Σ_q x(q) · y(q)` over `q` ascending with exact zeros of `x`
    /// skipped: the Strict accumulation of one output element, written as
    /// the plainest possible loop.
    fn strict_dot(len: usize, x: impl Fn(usize) -> f32, y: impl Fn(usize) -> f32) -> f32 {
        let mut acc = 0.0f32;
        for q in 0..len {
            if x(q) != 0.0 {
                acc += x(q) * y(q);
            }
        }
        acc
    }

    /// Run `op` on leaves `(l, r)` under the loss `Σ out ⊙ mask`, where
    /// `mask` is a ReLU-masked constant: the upstream gradient reaching the
    /// op is `mask` itself, exact zeros included. Returns the forward
    /// value, the upstream gradient and both leaf gradients.
    fn masked_run(
        l: &Tensor,
        r: &Tensor,
        op: impl Fn(&mut Tape, Var, Var) -> Var,
    ) -> (Tensor, Tensor, Tensor, Tensor) {
        let mut t = Tape::new();
        let (lv, rv) = (t.leaf(l.clone()), t.leaf(r.clone()));
        let out = op(&mut t, lv, rv);
        let (rows, cols) = t.value(out).shape();
        let mask = seg_fixture(rows, cols, 99).map(|v| v.max(0.0));
        let mv = t.constant(mask.clone());
        let masked = t.mul(out, mv);
        let loss = t.sum_all(masked);
        t.backward(loss);
        let value = t.value(out).clone();
        (value, mask, t.grad(lv).unwrap().clone(), t.grad(rv).unwrap().clone())
    }

    /// The bias-style broadcast ops' gradients equal the per-element
    /// `get`/`set` loops they are defined by — column sums with rows
    /// ascending, row dot products with columns ascending — bit for bit,
    /// under an upstream gradient with exact zeros.
    #[test]
    fn broadcast_gradients_match_elementwise_loops_bitwise() {
        let (n, d) = (37, 19);
        let a0 = seg_fixture(n, d, 51);
        let (_, g, _, gb) =
            masked_run(&a0, &seg_fixture(1, d, 52), |t, a, b| t.add_row_broadcast(a, b));
        let mut want = Tensor::zeros(1, d);
        for r in 0..n {
            for c in 0..d {
                want.set(0, c, want.get(0, c) + g.get(r, c));
            }
        }
        assert!(g.data().contains(&0.0));
        assert_eq!(gb.to_bits_vec(), want.to_bits_vec(), "add_row_broadcast bias gradient");

        let (_, g, _, gb) =
            masked_run(&a0, &seg_fixture(n, 1, 53), |t, a, b| t.mul_col_broadcast(a, b));
        let mut want = Tensor::zeros(n, 1);
        for r in 0..n {
            let mut dot = 0.0;
            for c in 0..d {
                dot += g.get(r, c) * a0.get(r, c);
            }
            want.set(r, 0, dot);
        }
        assert_eq!(gb.to_bits_vec(), want.to_bits_vec(), "mul_col_broadcast scale gradient");
    }

    /// The DiffPool segment ops' forward and both gradients against plain
    /// scalar loops, independent of the GEMM kernels that compute them, with
    /// a zero-bearing upstream gradient, a one-row segment and a segment
    /// longer than the 256-row chunk of `Tensor::matmul_tn_into`.
    #[test]
    fn seg_ops_match_scalar_loops_bitwise() {
        let bits = |t: &Tensor| t.to_bits_vec();
        for (c, d) in [(3, 5), (12, 33)] {
            let offsets = vec![0, 1, 5, 275, 282];
            let n = *offsets.last().unwrap();
            let m0 = seg_fixture(n, c, 31);
            let x0 = seg_fixture(n, d, 32);
            let (out, g, gm, gx) =
                masked_run(&m0, &x0, |t, m, x| t.seg_matmul_tn(m, x, Arc::new(offsets.clone())));
            let (mut want_out, mut want_gm, mut want_gx) =
                (Tensor::zeros(4 * c, d), Tensor::zeros(n, c), Tensor::zeros(n, d));
            for s in 0..offsets.len() - 1 {
                let (lo, len) = (offsets[s], offsets[s + 1] - offsets[s]);
                for i in 0..c {
                    for j in 0..d {
                        let v = strict_dot(len, |q| m0.get(lo + q, i), |q| x0.get(lo + q, j));
                        want_out.set(s * c + i, j, v);
                    }
                }
                for p in lo..lo + len {
                    for i in 0..c {
                        want_gm.set(p, i, strict_dot(d, |j| g.get(s * c + i, j), |j| x0.get(p, j)));
                    }
                    for j in 0..d {
                        want_gx.set(p, j, strict_dot(c, |i| m0.get(p, i), |i| g.get(s * c + i, j)));
                    }
                }
            }
            assert!(g.data().contains(&0.0), "the upstream gradient must carry zeros");
            assert_eq!(bits(&out), bits(&want_out), "seg_matmul_tn forward, c={c}");
            assert_eq!(bits(&gm), bits(&want_gm), "seg_matmul_tn dm, c={c}");
            assert_eq!(bits(&gx), bits(&want_gx), "seg_matmul_tn dx, c={c}");
        }
        // One-row blocks and blocks longer than 256 rows.
        for (blocks, c, d) in [(3, 1, 4), (2, 260, 6), (3, 12, 20)] {
            let a0 = seg_fixture(blocks * c, c, 41);
            let h0 = seg_fixture(blocks * c, d, 42);
            let (out, g, ga, gh) = masked_run(&a0, &h0, |t, a, h| t.seg_block_matmul(a, h));
            let (mut want_out, mut want_ga, mut want_gh) = (
                Tensor::zeros(blocks * c, d),
                Tensor::zeros(blocks * c, c),
                Tensor::zeros(blocks * c, d),
            );
            for s in 0..blocks {
                let o = s * c;
                for i in 0..c {
                    for j in 0..d {
                        let v = strict_dot(c, |p| a0.get(o + i, p), |p| h0.get(o + p, j));
                        want_out.set(o + i, j, v);
                        let v = strict_dot(c, |q| a0.get(o + q, i), |q| g.get(o + q, j));
                        want_gh.set(o + i, j, v);
                    }
                    for p in 0..c {
                        let v = strict_dot(d, |j| g.get(o + i, j), |j| h0.get(o + p, j));
                        want_ga.set(o + i, p, v);
                    }
                }
            }
            assert_eq!(bits(&out), bits(&want_out), "seg_block_matmul forward, c={c}");
            assert_eq!(bits(&ga), bits(&want_ga), "seg_block_matmul da, c={c}");
            assert_eq!(bits(&gh), bits(&want_gh), "seg_block_matmul dh, c={c}");
        }
    }

    #[test]
    fn max_pool_gradient_goes_to_argmax() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::from_vec(3, 2, vec![1.0, 9.0, 5.0, 2.0, 3.0, 4.0]));
        let p = t.segment_max_pool_rows(x, Arc::new(vec![0, 3]));
        assert_eq!(t.value(p).data(), &[5.0, 9.0]);
        let loss = t.sum_all(p);
        t.backward(loss);
        assert_eq!(t.grad(x).unwrap().data(), &[0.0, 1.0, 1.0, 0.0, 0.0, 0.0]);
    }
}
