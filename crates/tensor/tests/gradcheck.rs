//! Finite-difference gradient verification for every differentiable op.
//!
//! For each op we build a scalar loss `L(inputs)`, compute analytic gradients
//! with `Tape::backward`, then perturb each input element by ±eps and compare
//! against the central difference. f32 arithmetic limits precision, so the
//! comparison uses a mixed absolute/relative tolerance.

use std::sync::Arc;
use tensor::{Tape, Tensor, Var};

const EPS: f32 = 3e-3;
const TOL: f32 = 3e-2;

/// Deterministic pseudo-random values in (-1, 1) without pulling in `rand`.
fn pseudo(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    Tensor::from_fn(rows, cols, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
    })
}

/// Check d(loss)/d(input_i) for every input against central differences.
/// `build` must construct the loss from leaves it creates on the given tape
/// (in the same order as `inputs`).
fn gradcheck(inputs: &[Tensor], build: impl Fn(&mut Tape, &[Var]) -> Var) {
    // Analytic gradients.
    let mut tape = Tape::new();
    let vars: Vec<Var> = inputs.iter().map(|t| tape.leaf(t.clone())).collect();
    let loss = build(&mut tape, &vars);
    assert_eq!(tape.value(loss).shape(), (1, 1), "loss must be scalar");
    tape.backward(loss);
    let analytic: Vec<Tensor> = vars.iter().map(|&v| tape.grad_or_zeros(v)).collect();

    // Numerical gradients.
    for (which, input) in inputs.iter().enumerate() {
        for e in 0..input.len() {
            let eval = |delta: f32| -> f32 {
                let mut perturbed: Vec<Tensor> = inputs.to_vec();
                perturbed[which].data_mut()[e] += delta;
                let mut t = Tape::new();
                let vs: Vec<Var> = perturbed.iter().map(|x| t.leaf(x.clone())).collect();
                let l = build(&mut t, &vs);
                t.value(l).item()
            };
            let numeric = (eval(EPS) - eval(-EPS)) / (2.0 * EPS);
            let got = analytic[which].data()[e];
            let denom = numeric.abs().max(got.abs()).max(1.0);
            assert!(
                (numeric - got).abs() / denom < TOL,
                "input {which} elem {e}: analytic {got} vs numeric {numeric}"
            );
        }
    }
}

#[test]
fn grad_matmul() {
    gradcheck(&[pseudo(3, 4, 1), pseudo(4, 2, 2)], |t, v| {
        let c = t.matmul(v[0], v[1]);
        let s = t.tanh(c); // nonlinearity so gradients are not constant
        t.sum_all(s)
    });
}

#[test]
fn grad_add_mul() {
    gradcheck(&[pseudo(2, 3, 3), pseudo(2, 3, 4)], |t, v| {
        let a = t.add(v[0], v[1]);
        let m = t.mul(a, v[1]);
        t.sum_all(m)
    });
}

#[test]
fn grad_row_broadcast() {
    gradcheck(&[pseudo(4, 3, 5), pseudo(1, 3, 6)], |t, v| {
        let a = t.add_row_broadcast(v[0], v[1]);
        let s = t.sigmoid(a);
        t.sum_all(s)
    });
}

#[test]
fn grad_col_broadcast() {
    gradcheck(&[pseudo(4, 3, 7), pseudo(4, 1, 8)], |t, v| {
        let a = t.mul_col_broadcast(v[0], v[1]);
        let s = t.tanh(a);
        t.sum_all(s)
    });
}

#[test]
fn grad_scale_add_scalar() {
    gradcheck(&[pseudo(2, 2, 9)], |t, v| {
        let a = t.scale(v[0], 2.5);
        let b = t.add_scalar(a, -0.3);
        let c = t.one_minus(b);
        let m = t.mul(c, c);
        t.sum_all(m)
    });
}

#[test]
fn grad_activations() {
    // Shift inputs away from the kink at 0 so finite differences are valid.
    let mut x = pseudo(3, 3, 10);
    for v in x.data_mut() {
        if v.abs() < 0.05 {
            *v += 0.1;
        }
    }
    gradcheck(&[x.clone()], |t, v| {
        let a = t.leaky_relu(v[0], 0.2);
        t.sum_all(a)
    });
    gradcheck(&[x.clone()], |t, v| {
        let a = t.elu(v[0], 1.0);
        t.sum_all(a)
    });
    gradcheck(&[x.clone()], |t, v| {
        let a = t.relu(v[0]);
        t.sum_all(a)
    });
    gradcheck(&[x.clone()], |t, v| {
        let a = t.tanh(v[0]);
        t.sum_all(a)
    });
    gradcheck(&[x], |t, v| {
        let a = t.sigmoid(v[0]);
        t.sum_all(a)
    });
}

#[test]
fn grad_softmax_rows() {
    gradcheck(&[pseudo(3, 4, 11), pseudo(3, 4, 12)], |t, v| {
        let s = t.softmax_rows(v[0]);
        let m = t.mul(s, v[1]); // weight the softmax so grads differ per cell
        t.sum_all(m)
    });
}

#[test]
fn grad_transpose_concat() {
    gradcheck(&[pseudo(2, 3, 13), pseudo(2, 2, 14)], |t, v| {
        let c = t.concat_cols(v[0], v[1]); // (2,5)
        let ct = t.transpose(c); // (5,2)
        let s = t.tanh(ct);
        t.sum_all(s)
    });
    gradcheck(&[pseudo(2, 3, 15), pseudo(1, 3, 16)], |t, v| {
        let c = t.concat_rows(v[0], v[1]); // (3,3)
        let s = t.sigmoid(c);
        t.sum_all(s)
    });
}

#[test]
fn grad_gather_scatter() {
    let idx = Arc::new(vec![2usize, 0, 2, 1]);
    gradcheck(&[pseudo(3, 2, 17)], |t, v| {
        let g = t.gather_rows(v[0], idx.clone());
        let s = t.tanh(g);
        t.sum_all(s)
    });
    let idx2 = Arc::new(vec![1usize, 1, 0, 2]);
    gradcheck(&[pseudo(4, 2, 18)], |t, v| {
        let s = t.scatter_add_rows(v[0], idx2.clone(), 3);
        let a = t.sigmoid(s);
        t.sum_all(a)
    });
}

#[test]
fn grad_segment_softmax() {
    let seg = Arc::new(vec![0usize, 0, 1, 1, 1, 2]);
    gradcheck(&[pseudo(6, 1, 19), pseudo(6, 1, 20)], |t, v| {
        let s = t.segment_softmax(v[0], seg.clone());
        let m = t.mul(s, v[1]);
        t.sum_all(m)
    });
}

#[test]
fn grad_pooling() {
    // Uneven segments, one of them a single row.
    let offsets = Arc::new(vec![0usize, 3, 4, 7]);
    gradcheck(&[pseudo(7, 3, 21)], |t, v| {
        let p = t.segment_max_pool_rows(v[0], offsets.clone());
        let s = t.tanh(p);
        t.sum_all(s)
    });
    gradcheck(&[pseudo(7, 3, 22)], |t, v| {
        let p = t.segment_mean_pool_rows(v[0], offsets.clone());
        let s = t.sigmoid(p);
        t.sum_all(s)
    });
}

#[test]
fn grad_l2_normalize() {
    gradcheck(&[pseudo(3, 4, 23), pseudo(3, 4, 24)], |t, v| {
        let n = t.l2_normalize_rows(v[0], 1e-6);
        let m = t.mul(n, v[1]);
        t.sum_all(m)
    });
}

#[test]
fn grad_cross_entropy() {
    let targets = Arc::new(vec![0usize, 2, 1]);
    gradcheck(&[pseudo(3, 3, 25)], |t, v| t.cross_entropy(v[0], targets.clone()));
}

#[test]
fn grad_composite_gat_like_step() {
    // A miniature GAT step: gather src/dst, score, segment softmax, weight
    // messages, scatter, activation. Exercises op composition end-to-end.
    let src = Arc::new(vec![0usize, 1, 2, 0]);
    let dst = Arc::new(vec![1usize, 2, 0, 2]);
    gradcheck(&[pseudo(3, 3, 26), pseudo(3, 2, 27), pseudo(4, 1, 28)], |t, v| {
        let h = t.matmul(v[0], v[1]); // (3,2)
        let hs = t.gather_rows(h, src.clone());
        let hd = t.gather_rows(h, dst.clone());
        let cat = t.concat_cols(hs, hd); // (4,4)
        let score = t.matmul(cat, v[2]); // wrong dims? v[2] is (4,1)
        let score = t.leaky_relu(score, 0.2);
        let alpha = t.segment_softmax(score, dst.clone());
        let msg = t.mul_col_broadcast(hs, alpha);
        let agg = t.scatter_add_rows(msg, dst.clone(), 3);
        let out = t.elu(agg, 1.0);
        t.sum_all(out)
    });
}

#[test]
fn grad_gru_like_step() {
    // One GRU cell step composed from primitives (Eqs. 15-18 of the paper).
    gradcheck(
        &[
            pseudo(2, 3, 29), // U_t
            pseudo(2, 3, 30), // h_{t-1}
            pseudo(3, 3, 31), // W_u
            pseudo(3, 3, 32), // V_u
            pseudo(3, 3, 33), // W
            pseudo(3, 3, 34), // V
        ],
        |t, v| {
            let uw = t.matmul(v[0], v[2]);
            let hv = t.matmul(v[1], v[3]);
            let pre_u = t.add(uw, hv);
            let u = t.sigmoid(pre_u);
            let r = u; // reuse for brevity; the real cell has its own gate
            let wu = t.matmul(v[0], v[4]);
            let hv2 = t.matmul(v[1], v[5]);
            let gated = t.mul(r, hv2);
            let pre_h = t.add(wu, gated);
            let cand = t.tanh(pre_h);
            let keep = t.one_minus(u);
            let a = t.mul(keep, v[1]);
            let b = t.mul(u, cand);
            let h = t.add(a, b);
            t.sum_all(h)
        },
    );
}
