//! Helpers shared by the encoders' unit tests.

use nn::ParamStore;

/// FNV-1a over the loss bits, then every parameter gradient's bit pattern
/// in store order: one number that moves if any gradient bit does.
pub(crate) fn grad_digest(store: &ParamStore, loss: f32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bits: u32| {
        for byte in bits.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(loss.to_bits());
    for id in store.ids() {
        store.grad(id).data().iter().for_each(|x| eat(x.to_bits()));
    }
    h
}
