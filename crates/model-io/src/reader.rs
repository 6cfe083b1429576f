//! Parsing and validating a model container.
//!
//! Every open validates the whole container up front: structure (magic,
//! version, section framing) and every section's CRC-32. What differs is
//! the response to a checksum mismatch:
//!
//! - [`ModelReader::from_bytes`] rejects the container at the first
//!   damaged section — by the time a caller holds a [`SectionReader`], the
//!   bytes it walks are known-intact.
//! - [`ModelReader::from_bytes_lenient`] quarantines only the damaged
//!   sections and keeps the intact ones readable.
//!
//! Either way a damaged section is unreadable: [`ModelReader::section`]
//! returns [`ModelIoError::ChecksumMismatch`] with the stored/computed
//! evidence. Remaining failures inside a verified payload (bad enum tag,
//! short payload) are logic-level
//! [`ModelIoError::Corrupt`]/[`ModelIoError::Truncated`] — still typed,
//! still no panic.

use crate::crc::crc32_concat;
use crate::{ModelIoError, FORMAT_VERSION, MAGIC, MAX_NAME_LEN, MIN_FORMAT_VERSION};
use std::ops::Range;

/// A validated model container, indexing sections by name.
#[derive(Debug)]
pub struct ModelReader {
    bytes: Vec<u8>,
    sections: Vec<SectionMeta>,
}

#[derive(Debug)]
struct SectionMeta {
    name: String,
    /// Byte range of the payload within `ModelReader::bytes`.
    payload: Range<usize>,
    stored: u32,
    /// CRC-32 of name and payload, computed once at parse time.
    computed: u32,
}

impl SectionMeta {
    fn damage(&self) -> Option<DamagedSection> {
        (self.stored != self.computed).then(|| DamagedSection {
            name: self.name.clone(),
            stored: self.stored,
            computed: self.computed,
        })
    }
}

/// A section whose stored checksum disagreed with its payload — the payload
/// is withheld, only the evidence is kept.
#[derive(Debug, Clone)]
pub struct DamagedSection {
    pub name: String,
    pub stored: u32,
    pub computed: u32,
}

impl From<DamagedSection> for ModelIoError {
    fn from(d: DamagedSection) -> Self {
        ModelIoError::ChecksumMismatch { section: d.name, stored: d.stored, computed: d.computed }
    }
}

/// Cursor over one section's payload.
#[derive(Debug)]
pub struct SectionReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl ModelReader {
    /// Validate magic, version, framing and all checksums.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ModelIoError> {
        let (reader, damaged) = Self::from_bytes_lenient(bytes)?;
        match damaged.into_iter().next() {
            None => Ok(reader),
            Some(d) => Err(d.into()),
        }
    }

    /// Like [`ModelReader::from_bytes`], but a checksum mismatch quarantines
    /// only the damaged section instead of rejecting the whole container:
    /// the intact sections remain readable and every damaged one is
    /// reported. Reading a quarantined section later yields
    /// [`ModelIoError::ChecksumMismatch`] with the same evidence.
    /// Structural damage (bad magic, version skew, broken framing) is still
    /// a hard error — without intact framing no section can be trusted.
    ///
    /// This is the read half of graceful degradation: `dbg4eth`'s degraded
    /// load path serves whatever branches survived single-section damage.
    pub fn from_bytes_lenient(bytes: &[u8]) -> Result<(Self, Vec<DamagedSection>), ModelIoError> {
        let sections = Self::parse_structure(bytes)?;
        let damaged = sections.iter().filter_map(SectionMeta::damage).collect();
        Ok((Self { bytes: bytes.to_vec(), sections }, damaged))
    }

    /// Walk the framing and record each section's name, payload range and
    /// stored and computed checksums.
    fn parse_structure(bytes: &[u8]) -> Result<Vec<SectionMeta>, ModelIoError> {
        let mut cur = Cursor { buf: bytes, pos: 0 };
        let magic = cur.take(4, "magic")?;
        if magic != MAGIC {
            return Err(ModelIoError::BadMagic { found: [magic[0], magic[1], magic[2], magic[3]] });
        }
        let version = cur.u32("format version")?;
        // Older-but-supported versions share this framing; only the section
        // payloads differ (v2 branch payloads lack the trailing scaler,
        // which `read_branch` detects by remaining length). Newer versions
        // are rejected — their payloads could silently misparse.
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(ModelIoError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let n_sections = cur.u32("section count")? as usize;
        let mut sections = Vec::new();
        for _ in 0..n_sections {
            let name_len = cur.u32("section name length")? as usize;
            if name_len > MAX_NAME_LEN {
                return Err(ModelIoError::Corrupt {
                    context: format!("section name length {name_len} exceeds {MAX_NAME_LEN}"),
                });
            }
            let name_bytes = cur.take(name_len, "section name")?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| ModelIoError::Corrupt {
                    context: "section name is not UTF-8".to_string(),
                })?
                .to_string();
            let payload_len = cur.u64("section payload length")? as usize;
            let start = cur.pos;
            let payload = cur.take(payload_len, "section payload")?;
            let computed = crc32_concat(&[name_bytes, payload]);
            let stored = cur.u32("section checksum")?;
            sections.push(SectionMeta {
                name,
                payload: start..start + payload_len,
                stored,
                computed,
            });
        }
        if cur.pos != bytes.len() {
            return Err(ModelIoError::Corrupt {
                context: format!("{} trailing bytes after the last section", bytes.len() - cur.pos),
            });
        }
        Ok(sections)
    }

    /// Names of all sections, in file order (including any quarantined by a
    /// lenient parse — they are present, just unreadable).
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|m| m.name.as_str())
    }

    /// A cursor over the named section's payload. A damaged section yields
    /// [`ModelIoError::ChecksumMismatch`] on every call.
    pub fn section(&self, name: &str) -> Result<SectionReader<'_>, ModelIoError> {
        let meta = self
            .sections
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| ModelIoError::MissingSection { name: name.to_string() })?;
        match meta.damage() {
            None => Ok(SectionReader::new(&self.bytes[meta.payload.clone()])),
            Some(d) => Err(d.into()),
        }
    }
}

/// Minimal bounds-checked byte cursor shared by the header parser.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], ModelIoError> {
        if self.buf.len() - self.pos < n {
            return Err(ModelIoError::Truncated { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, ModelIoError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, ModelIoError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
}

impl<'a> SectionReader<'a> {
    /// Wrap a raw payload. Sections handed out by [`ModelReader::section`]
    /// are checksum-verified; this constructor is also used for wire frames
    /// (the serve protocol) where integrity comes from the transport.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&[u8], ModelIoError> {
        if self.buf.len() - self.pos < n {
            return Err(ModelIoError::Truncated { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn get_u8(&mut self) -> Result<u8, ModelIoError> {
        Ok(self.take(1, "u8")?[0])
    }

    pub fn get_bool(&mut self) -> Result<bool, ModelIoError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(ModelIoError::Corrupt { context: format!("invalid bool byte {v}") }),
        }
    }

    pub fn get_u32(&mut self) -> Result<u32, ModelIoError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn get_u64(&mut self) -> Result<u64, ModelIoError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    pub fn get_usize(&mut self) -> Result<usize, ModelIoError> {
        Ok(self.get_u64()? as usize)
    }

    pub fn get_f32(&mut self) -> Result<f32, ModelIoError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    pub fn get_f64(&mut self) -> Result<f64, ModelIoError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_str(&mut self) -> Result<String, ModelIoError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len, "string")?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ModelIoError::Corrupt { context: "string is not UTF-8".to_string() })
    }

    /// Read a length-prefixed count, bounded by the bytes actually left in
    /// the section, so a corrupted length can never trigger a pathological
    /// allocation.
    fn get_len(&mut self, elem_bytes: usize) -> Result<usize, ModelIoError> {
        let n = self.get_usize()?;
        if n.saturating_mul(elem_bytes) > self.buf.len() - self.pos {
            return Err(ModelIoError::Truncated { context: "length-prefixed array" });
        }
        Ok(n)
    }

    pub fn get_f64s(&mut self) -> Result<Vec<f64>, ModelIoError> {
        let n = self.get_len(8)?;
        (0..n).map(|_| self.get_f64()).collect()
    }

    pub fn get_f32s(&mut self) -> Result<Vec<f32>, ModelIoError> {
        let n = self.get_len(4)?;
        (0..n).map(|_| self.get_f32()).collect()
    }

    pub fn get_usizes(&mut self) -> Result<Vec<usize>, ModelIoError> {
        let n = self.get_len(8)?;
        (0..n).map(|_| self.get_usize()).collect()
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the whole payload was consumed — catches schema drift where a
    /// writer appends fields an older reader does not know about.
    pub fn expect_end(&self, section: &str) -> Result<(), ModelIoError> {
        if self.remaining() != 0 {
            return Err(ModelIoError::Corrupt {
                context: format!(
                    "{} unread bytes at the end of section '{section}'",
                    self.remaining()
                ),
            });
        }
        Ok(())
    }
}
