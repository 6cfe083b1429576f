//! Edge-case behaviour of the tape: diamond-shaped reuse, repeated
//! backward-relevant nodes, degenerate shapes and numerical extremes.

use std::sync::Arc;
use tensor::{Tape, Tensor};

#[test]
fn diamond_graph_accumulates_gradients() {
    // loss = sum(x*x + x*x) reuses x twice along two paths: grad = 4x.
    let mut t = Tape::new();
    let x = t.leaf(Tensor::from_vec(1, 2, vec![3.0, -2.0]));
    let a = t.mul(x, x);
    let b = t.mul(x, x);
    let s = t.add(a, b);
    let loss = t.sum_all(s);
    t.backward(loss);
    assert_eq!(t.grad(x).unwrap().data(), &[12.0, -8.0]);
}

#[test]
fn node_reused_as_both_operands() {
    // y = x ⊙ x: dy/dx = 2x, both operand slots point at the same node.
    let mut t = Tape::new();
    let x = t.leaf(Tensor::scalar(5.0));
    let y = t.mul(x, x);
    t.backward(y);
    assert_eq!(t.grad(x).unwrap().item(), 10.0);
}

#[test]
fn long_chain_of_ops_stays_finite() {
    let mut t = Tape::new();
    let mut x = t.leaf(Tensor::full(4, 4, 0.5));
    for _ in 0..50 {
        x = t.tanh(x);
    }
    let loss = t.sum_all(x);
    t.backward(loss);
    assert!(t.grad_or_zeros(x).all_finite());
}

#[test]
fn softmax_extreme_logits_stable() {
    let mut t = Tape::new();
    let x = t.leaf(Tensor::from_vec(1, 3, vec![1000.0, -1000.0, 0.0]));
    let s = t.softmax_rows(x);
    let v = t.value(s);
    assert!(v.all_finite());
    assert!((v.get(0, 0) - 1.0).abs() < 1e-6);
    assert!(v.get(0, 1).abs() < 1e-6);
    let loss = t.sum_all(s);
    t.backward(loss);
    assert!(t.grad(x).unwrap().all_finite());
}

#[test]
fn cross_entropy_extreme_logits_stable() {
    let mut t = Tape::new();
    let x = t.leaf(Tensor::from_vec(2, 2, vec![500.0, -500.0, -500.0, 500.0]));
    let loss = t.cross_entropy(x, Arc::new(vec![1, 0]));
    assert!(t.value(loss).item().is_finite());
    assert!(t.value(loss).item() >= 999.0, "loss should be ~1000 nats");
    t.backward(loss);
    assert!(t.grad(x).unwrap().all_finite());
}

#[test]
fn sigmoid_saturation_gradients_vanish_not_explode() {
    let mut t = Tape::new();
    let x = t.leaf(Tensor::from_vec(1, 2, vec![100.0, -100.0]));
    let s = t.sigmoid(x);
    let loss = t.sum_all(s);
    t.backward(loss);
    let g = t.grad(x).unwrap();
    assert!(g.data().iter().all(|&v| v.abs() < 1e-6 && v.is_finite()));
}

#[test]
fn single_element_everything() {
    let mut t = Tape::new();
    let x = t.leaf(Tensor::scalar(2.0));
    let y = t.leaf(Tensor::scalar(3.0));
    let m = t.matmul(x, y);
    assert_eq!(t.value(m).item(), 6.0);
    let p = t.segment_max_pool_rows(m, Arc::new(vec![0, 1]));
    let q = t.segment_mean_pool_rows(p, Arc::new(vec![0, 1]));
    let s = t.softmax_rows(q);
    assert_eq!(t.value(s).item(), 1.0);
    let loss = t.sum_all(m);
    t.backward(loss);
    assert_eq!(t.grad(x).unwrap().item(), 3.0);
}

#[test]
fn gather_empty_index_list() {
    let mut t = Tape::new();
    let x = t.leaf(Tensor::from_vec(3, 2, vec![1.0; 6]));
    let g = t.gather_rows(x, Arc::new(Vec::new()));
    assert_eq!(t.value(g).shape(), (0, 2));
}

#[test]
fn grad_or_zeros_for_untouched_node() {
    let mut t = Tape::new();
    let x = t.leaf(Tensor::ones(2, 2));
    let unused = t.leaf(Tensor::ones(3, 3));
    let loss = t.sum_all(x);
    t.backward(loss);
    assert_eq!(t.grad(unused), None);
    assert_eq!(t.grad_or_zeros(unused).shape(), (3, 3));
    assert_eq!(t.grad_or_zeros(unused).sum(), 0.0);
}

#[test]
fn multi_head_losses_combine_via_add_before_backward() {
    // The supported way to differentiate several heads at once: combine
    // them into one scalar first (backward is single-shot per tape).
    let mut t = Tape::new();
    let x = t.leaf(Tensor::scalar(4.0));
    let a = t.scale(x, 2.0);
    let b = t.scale(x, 3.0);
    let sum = t.add(a, b);
    t.backward(sum);
    assert_eq!(t.grad(x).unwrap().item(), 5.0);
}

#[test]
fn one_minus_of_one_minus_is_identity_value() {
    let mut t = Tape::new();
    let x = t.leaf(Tensor::from_vec(1, 3, vec![0.1, 0.5, 0.9]));
    let y = t.one_minus(x);
    let z = t.one_minus(y);
    for i in 0..3 {
        assert!((t.value(z).get(0, i) - t.value(x).get(0, i)).abs() < 1e-6);
    }
}
