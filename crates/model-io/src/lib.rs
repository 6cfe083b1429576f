//! # model-io — the on-disk format of trained DBG4ETH models
//!
//! A versioned, dependency-free binary container for everything the serving
//! path needs: encoder weights, fitted calibrators, and the GBDT forest.
//! The container is deliberately dumb — it knows nothing about tensors or
//! trees, only about named, checksummed byte sections — so every crate
//! serialises its own types with the primitives here and the format cannot
//! drift when model internals change.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "DBGM" | format_version u32 | n_sections u32 |
//!   per section: name_len u32 | name utf-8 | payload_len u64 |
//!                payload bytes | crc32(name ++ payload) u32
//! ```
//!
//! Every multi-byte value inside a payload is written by [`SectionWriter`]
//! and read back by [`SectionReader`]; floats travel as IEEE-754 bit
//! patterns (`to_bits`/`from_bits`), so a round-trip is exact — the
//! load→infer byte-identity contract of `dbg4eth::Session::score` rests on this.
//!
//! Failure behaviour is part of the API: a truncated, bit-flipped or
//! version-skewed file must surface as a typed [`ModelIoError`], never a
//! panic and never a silently misloaded model. The property tests in
//! `tests/properties.rs` pin this down.

mod crc;
mod error;
mod reader;
mod writer;

pub use crc::crc32;
pub use error::ModelIoError;
pub use reader::{DamagedSection, ModelReader, SectionReader};
pub use writer::{ModelWriter, SectionWriter};

/// File magic, first four bytes of every model file.
pub const MAGIC: [u8; 4] = *b"DBGM";

/// Current schema version of the container format. Version 2 split the
/// calibration ensembles out of the encoder-branch sections into their own
/// `gsg.cal`/`ldg.cal` sections, so a damaged calibrator can be detected —
/// and degraded around — without losing the encoder weights beside it.
/// Version 3 appends the train-time confidence scaler (mean/std fitted on
/// the holdout split) to each encoder-branch section, so a serving process
/// can score singleton batches without batch-composition-dependent scaling.
pub const FORMAT_VERSION: u32 = 3;

/// Oldest container version this build still reads (strict and lenient
/// loads alike accept `MIN_FORMAT_VERSION..=FORMAT_VERSION`). Version 2
/// branch sections carry no confidence scaler; they load fine, and a
/// pinned-scaling request against them falls back to batch refitting with
/// the scores flagged degraded (`infer.scaler_fallbacks`).
pub const MIN_FORMAT_VERSION: u32 = 2;

/// Hard cap on a section name, so a corrupted length field cannot trigger
/// a pathological allocation before the checksum is ever consulted.
pub(crate) const MAX_NAME_LEN: usize = 4096;

/// Flip one payload byte of the named section in a serialised container,
/// leaving its stored CRC-32 untouched, so loading it yields a
/// [`ModelIoError::ChecksumMismatch`] for exactly that section. Returns
/// `false` (touching nothing) when the section is absent or the bytes do
/// not parse as a container.
///
/// This is the write half of the `corrupt@model.<section>` fault: chaos
/// tests and the fault-injected save path use it to manufacture
/// single-section damage that the degraded load path must contain.
pub fn corrupt_section(bytes: &mut [u8], name: &str) -> bool {
    fn u32_at(b: &[u8], pos: usize) -> Option<u32> {
        Some(u32::from_le_bytes(b.get(pos..pos + 4)?.try_into().ok()?))
    }
    fn u64_at(b: &[u8], pos: usize) -> Option<u64> {
        Some(u64::from_le_bytes(b.get(pos..pos + 8)?.try_into().ok()?))
    }
    let mut pos = MAGIC.len() + 4; // magic + format version
    let Some(n_sections) = u32_at(bytes, pos) else { return false };
    let n_sections = n_sections as usize;
    pos += 4;
    for _ in 0..n_sections {
        let Some(name_len) = u32_at(bytes, pos) else { return false };
        let name_len = name_len as usize;
        pos += 4;
        let Some(section_name) = bytes.get(pos..pos + name_len) else { return false };
        let hit = section_name == name.as_bytes();
        pos += name_len;
        let Some(payload_len) = u64_at(bytes, pos) else { return false };
        let payload_len = payload_len as usize;
        pos += 8;
        if bytes.len() < pos + payload_len + 4 {
            return false;
        }
        if hit {
            // Flip a byte in the middle of the payload; an empty payload
            // gets its checksum flipped instead — either way the stored
            // and computed CRCs now disagree.
            let target = if payload_len > 0 { pos + payload_len / 2 } else { pos + payload_len };
            bytes[target] ^= 0xA5;
            return true;
        }
        pos += payload_len + 4;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_container_round_trips() {
        let bytes = ModelWriter::new().to_bytes();
        let r = ModelReader::from_bytes(&bytes).unwrap();
        assert!(r.section_names().next().is_none());
    }

    #[test]
    fn sections_round_trip_in_order() {
        let mut w = ModelWriter::new();
        let mut a = SectionWriter::new();
        a.put_u32(7);
        a.put_f64s(&[1.5, -2.25, f64::NAN]);
        w.push("alpha", a);
        let mut b = SectionWriter::new();
        b.put_str("hello");
        w.push("beta", b);
        let bytes = w.to_bytes();

        let r = ModelReader::from_bytes(&bytes).unwrap();
        let names: Vec<&str> = r.section_names().collect();
        assert_eq!(names, ["alpha", "beta"]);
        let mut alpha = r.section("alpha").unwrap();
        assert_eq!(alpha.get_u32().unwrap(), 7);
        // Floats round-trip bit for bit, NaN payload included.
        let bits: Vec<u64> = alpha.get_f64s().unwrap().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [1.5f64.to_bits(), (-2.25f64).to_bits(), f64::NAN.to_bits()]);
        assert_eq!(r.section("beta").unwrap().get_str().unwrap(), "hello");
    }

    #[test]
    fn missing_section_is_typed() {
        let bytes = ModelWriter::new().to_bytes();
        let r = ModelReader::from_bytes(&bytes).unwrap();
        match r.section("nope") {
            Err(ModelIoError::MissingSection { name }) => assert_eq!(name, "nope"),
            other => panic!("expected MissingSection, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = ModelWriter::new().to_bytes();
        bytes[0] = b'X';
        match ModelReader::from_bytes(&bytes) {
            Err(ModelIoError::BadMagic { .. }) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn future_version_is_typed() {
        let mut bytes = ModelWriter::new().to_bytes();
        bytes[4] = 0xFF; // bump the version field
        match ModelReader::from_bytes(&bytes) {
            Err(ModelIoError::UnsupportedVersion { found, supported }) => {
                assert_eq!(supported, FORMAT_VERSION);
                assert_ne!(found, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn previous_version_is_still_readable_and_the_floor_is_real() {
        let mut w = ModelWriter::new();
        let mut a = SectionWriter::new();
        a.put_u32(7);
        w.push("alpha", a);
        let mut bytes = w.to_bytes();
        // The version field is outside the section CRCs, so rewriting it
        // yields exactly what an older writer would have produced.
        bytes[4..8].copy_from_slice(&MIN_FORMAT_VERSION.to_le_bytes());
        let r = ModelReader::from_bytes(&bytes).expect("v2 containers must load");
        assert_eq!(r.section("alpha").unwrap().get_u32().unwrap(), 7);
        // One below the floor is rejected.
        bytes[4..8].copy_from_slice(&(MIN_FORMAT_VERSION - 1).to_le_bytes());
        match ModelReader::from_bytes(&bytes) {
            Err(ModelIoError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, MIN_FORMAT_VERSION - 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_section_hits_exactly_the_named_section() {
        let mut w = ModelWriter::new();
        let mut a = SectionWriter::new();
        a.put_u64(0xDEAD_BEEF);
        w.push("alpha", a);
        let mut b = SectionWriter::new();
        b.put_str("intact");
        w.push("beta", b);
        let mut bytes = w.to_bytes();

        assert!(corrupt_section(&mut bytes, "alpha"));
        match ModelReader::from_bytes(&bytes) {
            Err(ModelIoError::ChecksumMismatch { section, .. }) => assert_eq!(section, "alpha"),
            other => panic!("expected ChecksumMismatch on alpha, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_section_handles_empty_payloads_and_misses() {
        let mut w = ModelWriter::new();
        w.push("empty", SectionWriter::new());
        let mut bytes = w.to_bytes();
        assert!(!corrupt_section(&mut bytes, "absent"));
        assert!(ModelReader::from_bytes(&bytes).is_ok(), "miss must not damage the container");
        assert!(corrupt_section(&mut bytes, "empty"));
        assert!(matches!(
            ModelReader::from_bytes(&bytes),
            Err(ModelIoError::ChecksumMismatch { .. })
        ));
        // Garbage input is a no-op, not a panic.
        let mut junk = vec![1u8, 2, 3];
        assert!(!corrupt_section(&mut junk, "x"));
    }

    #[test]
    fn lenient_parse_keeps_intact_sections_and_reports_damage() {
        let mut w = ModelWriter::new();
        let mut a = SectionWriter::new();
        a.put_u64(1);
        w.push("alpha", a);
        let mut b = SectionWriter::new();
        b.put_u64(2);
        w.push("beta", b);
        let mut bytes = w.to_bytes();
        assert!(corrupt_section(&mut bytes, "alpha"));

        let (r, damaged) = ModelReader::from_bytes_lenient(&bytes).unwrap();
        assert_eq!(damaged.len(), 1);
        assert_eq!(damaged[0].name, "alpha");
        assert_ne!(damaged[0].stored, damaged[0].computed);
        // The damaged section is quarantined with its evidence; the intact
        // one still reads.
        match r.section("alpha") {
            Err(ModelIoError::ChecksumMismatch { section, stored, computed }) => {
                assert_eq!(section, "alpha");
                assert_eq!((stored, computed), (damaged[0].stored, damaged[0].computed));
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        assert_eq!(r.section("beta").unwrap().get_u64().unwrap(), 2);
        // Structural damage is still fatal even leniently.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(ModelReader::from_bytes_lenient(&bad).is_err());
    }

    #[test]
    fn section_reader_new_walks_a_raw_buffer() {
        let mut w = SectionWriter::new();
        w.put_u32(9);
        w.put_str("frame");
        let bytes = w.into_bytes();
        let mut r = SectionReader::new(&bytes);
        assert_eq!(r.get_u32().unwrap(), 9);
        assert_eq!(r.get_str().unwrap(), "frame");
        r.expect_end("wire").unwrap();
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
