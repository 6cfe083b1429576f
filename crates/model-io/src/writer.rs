//! Building a model container in memory.

use crate::crc::crc32_concat;
use crate::{FORMAT_VERSION, MAGIC};

/// Accumulates the primitive values of one section as little-endian bytes.
/// Floats are stored as IEEE-754 bit patterns so round-trips are exact.
#[derive(Default)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Length-prefixed `f64` slice (bit-exact).
    pub fn put_f64s(&mut self, xs: &[f64]) {
        self.put_u64(xs.len() as u64);
        for &x in xs {
            self.put_f64(x);
        }
    }

    /// Length-prefixed `f32` slice (bit-exact).
    pub fn put_f32s(&mut self, xs: &[f32]) {
        self.put_u64(xs.len() as u64);
        for &x in xs {
            self.put_f32(x);
        }
    }

    /// Length-prefixed index slice.
    pub fn put_usizes(&mut self, xs: &[usize]) {
        self.put_u64(xs.len() as u64);
        for &x in xs {
            self.put_u64(x as u64);
        }
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer and take the raw payload bytes. Besides container
    /// sections, this backs wire frames (the serve protocol), where the
    /// same primitives are framed by the transport instead of a CRC.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Assembles named sections into the final `DBGM` container.
#[derive(Default)]
pub struct ModelWriter {
    sections: Vec<(String, Vec<u8>)>,
}

impl ModelWriter {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a finished section. Section order is preserved in the file.
    pub fn push(&mut self, name: &str, section: SectionWriter) {
        self.sections.push((name.to_string(), section.into_bytes()));
    }

    /// Render the container: magic, version, then each section with its
    /// CRC-32 over name and payload.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
            out.extend_from_slice(&crc32_concat(&[name.as_bytes(), payload]).to_le_bytes());
        }
        out
    }
}
