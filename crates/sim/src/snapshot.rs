//! Versioned, length-prefixed binary snapshots of engine state.
//!
//! The checkpoint/restore layer (PR 10) needs to freeze every piece of
//! live engine state — event queues, RNG stream positions, protocol
//! ledgers, radio state machines — and rebuild it byte-for-byte later,
//! possibly in a different process. The format is hand-rolled: a
//! [`Snap`] trait pair ([`Snap::snap`] writes, [`Snap::unsnap`] reads)
//! over a fixed-width little-endian wire format with explicit length
//! prefixes.
//!
//! # Format rules
//!
//! * Every snapshot starts with an 8-byte magic and a `u32`
//!   [`FORMAT_VERSION`]. Readers refuse other versions outright —
//!   there is no silent migration.
//! * Integers are little-endian fixed width; `usize` travels as `u64`.
//! * Floats travel as IEEE-754 bit patterns ([`f64::to_bits`]), so a
//!   round trip is exact — `NaN` payloads included.
//! * Collections are `u64` length followed by elements. Maps and sets
//!   serialize in sorted key order so identical state always produces
//!   identical bytes.
//! * `&'static str` labels (trace labels, span kinds, event causes)
//!   serialize as strings and re-intern on read via [`intern`].
//!
//! Every read returns a typed [`SnapshotError`] — a corrupted or
//! truncated snapshot must never panic or half-apply.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

use crate::ids::DeviceId;
use crate::time::{SimDuration, SimTime};

/// Version stamped into every snapshot header. Bump on ANY wire-format
/// change — CI carries a gate that fails when the format fingerprint
/// changes without a bump (see `tests/snapshot_format.rs`).
pub const FORMAT_VERSION: u32 = 2;

/// Magic prefix of a per-scenario snapshot.
pub const SCENARIO_MAGIC: [u8; 8] = *b"HBRSNAP\0";

/// Magic prefix of a crowd-engine checkpoint (a container of scenario
/// snapshots plus the fleet envelope).
pub const CROWD_MAGIC: [u8; 8] = *b"HBRCKPT\0";

/// Typed failure of a snapshot read or restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the value did.
    Truncated {
        /// Bytes the reader needed.
        needed: usize,
        /// Bytes that were left.
        available: usize,
    },
    /// The magic prefix did not match — not a snapshot (or the wrong
    /// kind of snapshot).
    BadMagic,
    /// The snapshot was written by a different format version.
    BadVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// Structurally invalid content (bad tag, impossible length, …).
    Corrupt(String),
    /// The snapshot is valid but was taken under a different
    /// configuration than the one restoring it.
    ConfigMismatch(String),
    /// An I/O failure while loading or persisting a snapshot file.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, available } => write!(
                f,
                "snapshot truncated: needed {needed} more bytes, {available} available"
            ),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::BadVersion { found, expected } => write!(
                f,
                "snapshot format version {found} unsupported (this build reads {expected})"
            ),
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
            SnapshotError::ConfigMismatch(why) => write!(f, "config mismatch: {why}"),
            SnapshotError::Io(why) => write!(f, "snapshot i/o: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.to_string())
    }
}

/// Append-only byte sink for snapshot serialization.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// A writer pre-stamped with `magic` and [`FORMAT_VERSION`].
    pub fn with_header(magic: [u8; 8]) -> Self {
        let mut w = SnapshotWriter::new();
        w.buf.extend_from_slice(&magic);
        w.put_u32(FORMAT_VERSION);
        w
    }

    /// Consumes the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes raw bytes with a length prefix.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_usize(b.len());
        self.buf.extend_from_slice(b);
    }
}

/// Cursor over snapshot bytes; every read is checked and returns a
/// typed error instead of panicking.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapshotReader { buf, pos: 0 }
    }

    /// A reader that has already verified `magic` and the format
    /// version; positioned just past the header.
    pub fn with_header(buf: &'a [u8], magic: [u8; 8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::new(buf);
        let found = r.take_array::<8>()?;
        if found != magic {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.take_u32()?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::BadVersion {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        Ok(r)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take_slice(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        Ok(self
            .take_slice(N)?
            .try_into()
            .expect("slice has requested length"))
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take_array::<1>()?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.take_u64()?;
        usize::try_from(v)
            .map_err(|_| SnapshotError::Corrupt(format!("length {v} overflows usize")))
    }

    /// Reads a little-endian `i64`.
    pub fn take_i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take_array()?))
    }

    /// Reads an `f64` bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a bool, rejecting anything but 0/1.
    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt(format!("bool byte {other}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_string(&mut self) -> Result<String, SnapshotError> {
        let len = self.take_usize()?;
        let bytes = self.take_slice(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("string is not UTF-8".to_string()))
    }

    /// Reads length-prefixed raw bytes.
    pub fn take_bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let len = self.take_usize()?;
        Ok(self.take_slice(len)?.to_vec())
    }

    /// Asserts the stream is fully consumed (trailing garbage is as
    /// suspect as truncation).
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after snapshot",
                self.remaining()
            )))
        }
    }
}

/// Symmetric binary serialization for one snapshot-able type.
pub trait Snap: Sized {
    /// Appends this value's wire form to `w`.
    fn snap(&self, w: &mut SnapshotWriter);
    /// Reads one value back, or a typed error.
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

macro_rules! snap_prim {
    ($($t:ty => $put:ident / $take:ident),+ $(,)?) => {$(
        impl Snap for $t {
            fn snap(&self, w: &mut SnapshotWriter) {
                w.$put(*self);
            }
            fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                r.$take()
            }
        }
    )+};
}

snap_prim!(
    u8 => put_u8 / take_u8,
    u32 => put_u32 / take_u32,
    u64 => put_u64 / take_u64,
    usize => put_usize / take_usize,
    i64 => put_i64 / take_i64,
    f64 => put_f64 / take_f64,
    bool => put_bool / take_bool,
);

impl Snap for String {
    fn snap(&self, w: &mut SnapshotWriter) {
        w.put_str(self);
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.take_string()
    }
}

impl Snap for SimTime {
    fn snap(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.as_micros());
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(SimTime::from_micros(r.take_u64()?))
    }
}

impl Snap for SimDuration {
    fn snap(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.as_micros());
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(SimDuration::from_micros(r.take_u64()?))
    }
}

impl Snap for DeviceId {
    fn snap(&self, w: &mut SnapshotWriter) {
        w.put_u32(self.index());
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(DeviceId::new(r.take_u32()?))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut SnapshotWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::unsnap(r)?)),
            other => Err(SnapshotError::Corrupt(format!("option tag {other}"))),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.len());
        for item in self {
            item.snap(w);
        }
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_usize()?;
        // Guard absurd lengths before allocating (a corrupt prefix must
        // not become an OOM): each element needs at least one byte.
        if len > r.remaining() {
            return Err(SnapshotError::Corrupt(format!(
                "vec length {len} exceeds remaining {} bytes",
                r.remaining()
            )));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::unsnap(r)?);
        }
        Ok(out)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap(&self, w: &mut SnapshotWriter) {
        self.0.snap(w);
        self.1.snap(w);
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn snap(&self, w: &mut SnapshotWriter) {
        self.0.snap(w);
        self.1.snap(w);
        self.2.snap(w);
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?, C::unsnap(r)?))
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn snap(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.len());
        for (k, v) in self {
            k.snap(w);
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_usize()?;
        if len > r.remaining() {
            return Err(SnapshotError::Corrupt(format!(
                "map length {len} exceeds remaining {} bytes",
                r.remaining()
            )));
        }
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::unsnap(r)?;
            let v = V::unsnap(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// Re-interns a label read back from a snapshot as `&'static str`.
/// The process-wide pool holds one leaked copy per distinct label; the
/// label vocabulary is a small fixed set (trace labels, span kinds,
/// fault names), so the leak is bounded.
pub fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(Vec::new()));
    let mut pool = pool.lock().expect("intern pool lock");
    if let Some(hit) = pool.iter().find(|have| **have == s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    pool.push(leaked);
    leaked
}

/// Re-interns a histogram boundary slice as `&'static [f64]`. Same
/// bounded-leak contract as [`intern`]: the workspace defines a handful
/// of static bucket lists, so at most that many slices ever leak.
pub fn intern_bounds(bounds: &[f64]) -> &'static [f64] {
    static POOL: OnceLock<Mutex<Vec<&'static [f64]>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(Vec::new()));
    let mut pool = pool.lock().expect("bounds pool lock");
    if let Some(hit) = pool
        .iter()
        .find(|have| have.len() == bounds.len() && have.iter().zip(bounds).all(|(a, b)| a == b))
    {
        return hit;
    }
    let leaked: &'static [f64] = Box::leak(bounds.to_vec().into_boxed_slice());
    pool.push(leaked);
    leaked
}

/// Writes `bytes` to `path` atomically: a sibling temp file, flushed,
/// then renamed into place — a crash mid-write leaves either the old
/// snapshot or none, never a torn one.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    use std::io::Write as _;
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Snap + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = SnapshotWriter::new();
        v.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(T::unsnap(&mut r).expect("round trip"), v);
        r.finish().expect("fully consumed");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(f64::NEG_INFINITY);
        round_trip(true);
        round_trip("héllo".to_string());
        round_trip(SimTime::from_micros(123_456));
        round_trip(SimDuration::from_secs(270));
        round_trip(DeviceId::new(7));
        round_trip(Some(vec![(1u64, 2.5f64), (3, 4.5)]));
        round_trip(Option::<u64>::None);
        let map: BTreeMap<String, u64> = [("a".into(), 1u64), ("b".into(), 2)].into();
        round_trip(map);
    }

    #[test]
    fn nan_bits_survive() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = SnapshotWriter::new();
        weird.snap(&mut w);
        let bytes = w.into_bytes();
        let back = f64::unsnap(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut w = SnapshotWriter::new();
        vec![1u64, 2, 3].snap(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let err = Vec::<u64>::unsnap(&mut SnapshotReader::new(&bytes[..cut]));
            assert!(err.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn corrupt_tags_are_typed_errors() {
        let err = bool::unsnap(&mut SnapshotReader::new(&[7])).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)));
        let err = Option::<u8>::unsnap(&mut SnapshotReader::new(&[9])).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)));
    }

    #[test]
    fn absurd_lengths_do_not_allocate() {
        let mut w = SnapshotWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let err = Vec::<u8>::unsnap(&mut SnapshotReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    #[test]
    fn header_checks_magic_and_version() {
        let w = SnapshotWriter::with_header(SCENARIO_MAGIC);
        let bytes = w.into_bytes();
        assert!(SnapshotReader::with_header(&bytes, SCENARIO_MAGIC).is_ok());
        assert_eq!(
            SnapshotReader::with_header(&bytes, CROWD_MAGIC).unwrap_err(),
            SnapshotError::BadMagic
        );
        let mut wrong = bytes.clone();
        wrong[8] = 0xFF;
        assert!(matches!(
            SnapshotReader::with_header(&wrong, SCENARIO_MAGIC).unwrap_err(),
            SnapshotError::BadVersion { .. }
        ));
    }

    #[test]
    fn interned_labels_are_stable() {
        let a = intern("feedback-timeout");
        let b = intern("feedback-timeout");
        assert!(std::ptr::eq(a, b));
        let bounds = intern_bounds(&[1.0, 2.0]);
        assert!(std::ptr::eq(bounds, intern_bounds(&[1.0, 2.0])));
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir().join(format!("hbr-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
