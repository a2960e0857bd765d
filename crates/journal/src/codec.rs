//! Minimal deterministic binary codec for journal payloads.
//!
//! All integers are little-endian; floats are encoded via their IEEE-754
//! bit patterns so a decode → re-encode round trip is bitwise exact (the
//! recovery battery compares canonical state encodings byte-for-byte).
//! Variable-length fields carry a `u32` length prefix.

use std::fmt;

/// Append-only byte writer used to build record and snapshot payloads.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer whose buffer holds `capacity` bytes before it reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` values are always widened to `u64` on the wire so the format
    /// is identical across platforms.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Decode failure for a journal payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Payload ended before the expected field.
    Eof { wanted: usize, remaining: usize },
    /// An enum discriminant byte had no known mapping.
    BadTag { context: &'static str, tag: u8 },
    /// A format-version byte this build does not understand.
    BadVersion { context: &'static str, version: u8 },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A decoded value violated a structural invariant.
    Invariant(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Eof { wanted, remaining } => {
                write!(
                    f,
                    "payload truncated: wanted {wanted} bytes, {remaining} left"
                )
            }
            DecodeError::BadTag { context, tag } => {
                write!(f, "unknown tag {tag:#04x} while decoding {context}")
            }
            DecodeError::BadVersion { context, version } => {
                write!(f, "unsupported {context} format version {version}")
            }
            DecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            DecodeError::Invariant(msg) => write!(f, "decoded value violates invariant: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Cursor over a payload produced by [`ByteWriter`].
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Eof {
                wanted: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        Ok(self.get_u8()? != 0)
    }

    pub fn get_u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub fn get_usize(&mut self) -> Result<usize, DecodeError> {
        Ok(self.get_u64()? as usize)
    }

    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    pub fn get_str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| DecodeError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_field_kinds() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_usize(42);
        w.put_f64(-0.125);
        w.put_f64(f64::NAN);
        w.put_bytes(&[1, 2, 3]);
        w.put_str("internet2");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_usize().unwrap(), 42);
        assert_eq!(r.get_f64().unwrap(), -0.125);
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.get_str().unwrap(), "internet2");
        assert!(r.is_done());
    }

    #[test]
    fn truncated_read_reports_eof() {
        let mut w = ByteWriter::new();
        w.put_u32(5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.get_u64(), Err(DecodeError::Eof { .. })));
    }
}
