//! Persisting a [`ParamStore`]: the checksummed `model-io` section codec
//! ([`ParamStore::write_section`] / [`ParamStore::read_section`]), the only
//! format model weights are stored in, and name-matched restoring from
//! another store.

use crate::params::{ParamId, ParamStore};
use model_io::{ModelIoError, SectionReader, SectionWriter};
use tensor::Tensor;

impl ParamStore {
    /// Serialise all parameters into a checksummed `model-io` section:
    /// `n_params u32 | per param: name | rows u32 | cols u32 | len u64 |
    /// f32 bits`.
    /// Weights travel as IEEE-754 bit patterns, so a save→load round trip
    /// reproduces every value exactly (the byte-identity contract of
    /// `dbg4eth::Session::score` depends on this).
    pub fn write_section(&self, s: &mut SectionWriter) {
        s.put_u32(self.len() as u32);
        for id in self.ids() {
            s.put_str(self.name(id));
            let t = self.value(id);
            s.put_u32(t.rows() as u32);
            s.put_u32(t.cols() as u32);
            s.put_usize(t.len());
            for b in t.to_bits_vec() {
                s.put_u32(b);
            }
        }
    }

    /// Rebuild a store from a section written by
    /// [`ParamStore::write_section`]. Structural damage surfaces as a typed
    /// [`ModelIoError`]; this never panics on corrupt input.
    pub fn read_section(s: &mut SectionReader) -> Result<Self, ModelIoError> {
        let n = s.get_u32()? as usize;
        let mut store = ParamStore::new();
        for _ in 0..n {
            let name = s.get_str()?;
            let rows = s.get_u32()? as usize;
            let cols = s.get_u32()? as usize;
            let len = s.get_usize()?;
            if len != rows.saturating_mul(cols) || len.saturating_mul(4) > s.remaining() {
                return Err(ModelIoError::Corrupt {
                    context: format!(
                        "parameter '{name}' claims shape ({rows}, {cols}) with {len} values"
                    ),
                });
            }
            let mut bits = Vec::with_capacity(len);
            for _ in 0..len {
                bits.push(s.get_u32()?);
            }
            store.add(name, Tensor::from_bits_vec(rows, cols, &bits));
        }
        Ok(store)
    }

    /// Copy values from `other` by matching parameter names. Returns the
    /// number of parameters restored; shapes must match exactly.
    pub fn restore_from(&mut self, other: &ParamStore) -> usize {
        let mut restored = 0;
        let ids: Vec<ParamId> = self.ids().collect();
        for id in ids {
            if let Some(src) = other.find(self.name(id)) {
                if other.value(src).shape() == self.value(id).shape() {
                    *self.value_mut(id) = other.value(src).clone();
                    restored += 1;
                }
            }
        }
        restored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_store() -> ParamStore {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = ParamStore::new();
        s.xavier("layer1.w", 4, 3, &mut rng);
        s.zeros("layer1.b", 1, 3);
        s.xavier("head.w", 3, 2, &mut rng);
        s
    }

    #[test]
    fn restore_by_name_and_shape() {
        let saved = sample_store();
        // A fresh model with the same architecture but different init.
        let mut rng = StdRng::seed_from_u64(99);
        let mut fresh = ParamStore::new();
        fresh.xavier("layer1.w", 4, 3, &mut rng);
        fresh.zeros("layer1.b", 1, 3);
        fresh.xavier("head.w", 3, 2, &mut rng);
        let restored = fresh.restore_from(&saved);
        assert_eq!(restored, 3);
        for (a, b) in saved.ids().zip(fresh.ids()) {
            assert_eq!(saved.value(a), fresh.value(b));
        }
    }

    #[test]
    fn restore_skips_shape_mismatches() {
        let saved = sample_store();
        let mut fresh = ParamStore::new();
        fresh.zeros("layer1.w", 2, 2); // wrong shape
        fresh.zeros("unknown", 1, 1); // absent from saved
        assert_eq!(fresh.restore_from(&saved), 0);
    }
}
