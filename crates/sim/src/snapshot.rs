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
//!   — `BTreeMap`, [`VecMap`], `HashMap` and `HashSet` alike —
//!   serialize in sorted key order, so identical state always produces
//!   identical bytes and a hash container or a `VecMap` writes the same
//!   bytes as a `BTreeMap` (or a sorted `Vec`) with the same contents.
//!   A key that appears twice is [`SnapshotError::Corrupt`], and so,
//!   for a `VecMap`, is a key below the one before it.
//! * `&'static str` labels (span kinds, event causes)
//!   serialize as strings and re-intern on read via [`intern`].
//! * A record whose wire form is its fields (or its variant's fields)
//!   in order states that order once, in a
//!   [`snap_struct!`](crate::snap_struct) or
//!   [`snap_enum!`](crate::snap_enum) list: the writer and the reader
//!   are generated from the same list, so they cannot disagree. An enum
//!   travels as a `u8` tag and then the variant's fields. Either macro
//!   takes an optional `check` function that vets the value it has
//!   read.
//!
//! Every read returns a typed [`SnapshotError`] — a corrupted or
//! truncated snapshot must never panic or half-apply.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::fs::File;
use std::hash::Hash;
use std::io::BufWriter;
use std::path::Path;
use std::sync::{Mutex, OnceLock};

use crate::ids::DeviceId;
use crate::time::{SimDuration, SimTime};
use crate::vec_map::VecMap;

/// Version stamped into every snapshot header. Bump on ANY wire-format
/// change — CI carries a gate that fails when the format fingerprint
/// changes without a bump (see `tests/snapshot_format.rs`).
pub const FORMAT_VERSION: u32 = 4;

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

/// Implements [`Snap`] for a struct from one list of its fields, in wire
/// order: the writer writes them in that order and the reader reads them
/// back in it. `snap_struct!(T(0))` does the same for a newtype. The
/// list must name every field (the reader builds the struct from it), so
/// a new field cannot be left out of the format by accident.
///
/// An optional `check f` runs `f: fn(&T) -> Result<(), SnapshotError>`
/// on each value read, for invariants the field types cannot express.
///
/// # Examples
///
/// ```
/// use hbr_sim::snap_struct;
/// use hbr_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
///
/// #[derive(Debug, PartialEq)]
/// struct Window {
///     start: u64,
///     end: u64,
/// }
///
/// fn check_window(w: &Window) -> Result<(), SnapshotError> {
///     if w.start <= w.end {
///         Ok(())
///     } else {
///         Err(SnapshotError::Corrupt("window ends before it starts".into()))
///     }
/// }
///
/// snap_struct!(Window { start, end } check check_window);
///
/// let mut w = SnapshotWriter::new();
/// Window { start: 9, end: 3 }.snap(&mut w);
/// let bytes = w.into_bytes();
/// assert!(Window::unsnap(&mut SnapshotReader::new(&bytes)).is_err());
/// ```
#[macro_export]
macro_rules! snap_struct {
    ($t:ident { $($field:ident),+ $(,)? } $(check $check:path)?) => {
        impl $crate::snapshot::Snap for $t {
            fn snap(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                $($crate::snapshot::Snap::snap(&self.$field, w);)+
            }
            fn unsnap(
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                let value = $t {
                    $($field: $crate::snapshot::Snap::unsnap(r)?,)+
                };
                $($check(&value)?;)?
                Ok(value)
            }
        }
    };
    ($t:ident(0) $(check $check:path)?) => {
        impl $crate::snapshot::Snap for $t {
            fn snap(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                $crate::snapshot::Snap::snap(&self.0, w);
            }
            fn unsnap(
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                let value = $t($crate::snapshot::Snap::unsnap(r)?);
                $($check(&value)?;)?
                Ok(value)
            }
        }
    };
}

/// Implements [`Snap`] for an enum from one list of its variants: each
/// travels as its `u8` tag and then its fields in the listed order. An
/// unknown tag reads as `Corrupt("<label> tag N")`. Takes the same
/// optional `check f` as [`snap_struct!`](crate::snap_struct).
///
/// # Examples
///
/// ```
/// use hbr_sim::snap_enum;
/// use hbr_sim::snapshot::{Snap, SnapshotReader, SnapshotWriter};
///
/// #[derive(Debug, PartialEq)]
/// enum Light {
///     Off,
///     Dimmed { level: u8 },
/// }
///
/// snap_enum!(Light "light" { 0 => Off, 1 => Dimmed { level } });
///
/// let mut w = SnapshotWriter::new();
/// Light::Dimmed { level: 40 }.snap(&mut w);
/// assert_eq!(w.into_bytes(), [1, 40]);
/// let err = Light::unsnap(&mut SnapshotReader::new(&[7])).unwrap_err();
/// assert_eq!(err.to_string(), "corrupt snapshot: light tag 7");
/// ```
#[macro_export]
macro_rules! snap_enum {
    ($t:ident $label:literal {
        $($tag:literal => $variant:ident $({ $($field:ident),* $(,)? })?),+ $(,)?
    } $(check $check:path)?) => {
        impl $crate::snapshot::Snap for $t {
            fn snap(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                match self {
                    $($t::$variant { $($($field),*)? } => {
                        w.put_u8($tag);
                        $($($crate::snapshot::Snap::snap($field, w);)*)?
                    })+
                }
            }
            fn unsnap(
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                let value = match r.take_u8()? {
                    $($tag => $t::$variant {
                        $($($field: $crate::snapshot::Snap::unsnap(r)?,)*)?
                    },)+
                    tag => {
                        return Err($crate::snapshot::SnapshotError::Corrupt(format!(
                            "{} tag {tag}",
                            $label
                        )))
                    }
                };
                $($check(&value)?;)?
                Ok(value)
            }
        }
    };
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

impl Snap for &'static str {
    fn snap(&self, w: &mut SnapshotWriter) {
        w.put_str(self);
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(intern(&r.take_string()?))
    }
}

/// Reads a collection's length prefix, refusing one longer than the
/// bytes left (every element needs at least one byte), so a corrupt
/// prefix cannot become an OOM.
fn take_len(r: &mut SnapshotReader<'_>, what: &str) -> Result<usize, SnapshotError> {
    let len = r.take_usize()?;
    if len > r.remaining() {
        return Err(SnapshotError::Corrupt(format!(
            "{what} length {len} exceeds remaining {} bytes",
            r.remaining()
        )));
    }
    Ok(len)
}

/// Reads `len` elements into a keyed container through `insert`, which
/// reports whether the key was new: a repeated key is `Corrupt`.
fn take_keyed<T: Snap>(
    r: &mut SnapshotReader<'_>,
    what: &str,
    len: usize,
    mut insert: impl FnMut(T) -> bool,
) -> Result<(), SnapshotError> {
    for i in 0..len {
        if !insert(T::unsnap(r)?) {
            return Err(SnapshotError::Corrupt(format!(
                "{what} entry {i} repeats a key"
            )));
        }
    }
    Ok(())
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.len());
        for item in self {
            item.snap(w);
        }
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = take_len(r, "vec")?;
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
        let len = take_len(r, "map")?;
        let mut out = BTreeMap::new();
        take_keyed(r, "map", len, |(k, v)| out.insert(k, v).is_none())?;
        Ok(out)
    }
}

/// Written as a `BTreeMap` with the same entries. Read back only from
/// entries whose keys ascend strictly.
impl<K: Snap + Ord, V: Snap> Snap for VecMap<K, V> {
    fn snap(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.len());
        for (k, v) in self.keys().zip(self.values()) {
            k.snap(w);
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = take_len(r, "map")?;
        let mut out = VecMap::new();
        for i in 0..len {
            let (k, v) = <(K, V)>::unsnap(r)?;
            let why = match out.push_above(k, v) {
                Ok(()) => continue,
                Err(Ordering::Equal) => "repeats a key",
                Err(_) => "has a key below the one before it",
            };
            return Err(SnapshotError::Corrupt(format!("map entry {i} {why}")));
        }
        Ok(out)
    }
}

/// Written in key order, as a `BTreeMap` with the same entries.
impl<K: Snap + Ord + Hash, V: Snap> Snap for HashMap<K, V> {
    fn snap(&self, w: &mut SnapshotWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.put_usize(entries.len());
        for (k, v) in entries {
            k.snap(w);
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = take_len(r, "map")?;
        let mut out = HashMap::with_capacity(len);
        take_keyed(r, "map", len, |(k, v)| out.insert(k, v).is_none())?;
        Ok(out)
    }
}

/// Written in ascending order, as a sorted `Vec` of the same elements.
impl<T: Snap + Ord + Hash> Snap for HashSet<T> {
    fn snap(&self, w: &mut SnapshotWriter) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort_unstable();
        w.put_usize(items.len());
        for item in items {
            item.snap(w);
        }
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = take_len(r, "set")?;
        let mut out = HashSet::with_capacity(len);
        take_keyed(r, "set", len, |t| out.insert(t))?;
        Ok(out)
    }
}

/// Re-interns a label read back from a snapshot as `&'static str`.
/// The process-wide pool holds one leaked copy per distinct label; the
/// label vocabulary is a small fixed set (event causes, span kinds,
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

/// Writes a file atomically and durably: `fill` streams the contents
/// through a buffer into a sibling `.tmp` file, which is flushed, synced
/// and renamed into place — a crash mid-write leaves either the old file
/// or none, never a torn one. On Unix the directory is synced after the
/// rename, so the new name survives a power loss too.
pub fn write_atomic(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<(), SnapshotError> {
    let tmp = path.with_extension("tmp");
    let mut out = BufWriter::new(File::create(&tmp)?);
    fill(&mut out)?;
    out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    std::fs::rename(&tmp, path)?;
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
    }
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

    fn to_bytes<T: Snap>(v: &T) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        v.snap(&mut w);
        w.into_bytes()
    }

    #[test]
    fn repeated_keys_are_corrupt_in_every_keyed_container() {
        let two_entries_one_key = to_bytes(&vec![(1u64, 10u64), (1, 20)]);
        let two_elements_one_value = to_bytes(&vec![1u64, 1]);
        for err in [
            BTreeMap::<u64, u64>::unsnap(&mut SnapshotReader::new(&two_entries_one_key))
                .unwrap_err(),
            VecMap::<u64, u64>::unsnap(&mut SnapshotReader::new(&two_entries_one_key)).unwrap_err(),
            HashMap::<u64, u64>::unsnap(&mut SnapshotReader::new(&two_entries_one_key))
                .unwrap_err(),
            HashSet::<u64>::unsnap(&mut SnapshotReader::new(&two_elements_one_value)).unwrap_err(),
        ] {
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
        }
    }

    #[test]
    fn a_vec_map_reads_a_btree_maps_bytes_and_refuses_keys_out_of_order() {
        let tree: BTreeMap<u64, String> =
            [(9, "c".into()), (2, "a".into()), (5, "b".into())].into();
        let bytes = to_bytes(&tree);
        let map = VecMap::<u64, String>::unsnap(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(map.keys().copied().collect::<Vec<_>>(), [2, 5, 9]);
        assert_eq!(to_bytes(&map), bytes);

        let repeated = to_bytes(&vec![(2u64, 10u64), (5, 20), (5, 30)]);
        let descending = to_bytes(&vec![(2u64, 10u64), (5, 20), (3, 30)]);
        for (bytes, why) in [
            (repeated, "map entry 2 repeats a key"),
            (descending, "map entry 2 has a key below the one before it"),
        ] {
            let err = VecMap::<u64, u64>::unsnap(&mut SnapshotReader::new(&bytes)).unwrap_err();
            assert_eq!(err, SnapshotError::Corrupt(why.into()));
        }
    }

    #[test]
    fn hash_containers_write_the_bytes_of_their_sorted_twins() {
        // Enough keys that hash iteration order is not the sorted order.
        let pairs: Vec<(u64, f64)> = (0..200u64).map(|k| (k * 7919 % 1000, k as f64)).collect();
        let hashed: HashMap<u64, f64> = pairs.iter().copied().collect();
        let tree: BTreeMap<u64, f64> = pairs.iter().copied().collect();
        assert_eq!(to_bytes(&hashed), to_bytes(&tree));
        round_trip(hashed);

        let set: HashSet<(u32, u64)> = pairs
            .iter()
            .map(|&(k, v)| (k as u32 % 17, v as u64))
            .collect();
        let mut sorted: Vec<(u32, u64)> = set.iter().copied().collect();
        sorted.sort();
        assert_eq!(to_bytes(&set), to_bytes(&sorted));
        round_trip(set);
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
        use std::io::Write as _;
        let dir = std::env::temp_dir().join(format!("hbr-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.bin");
        write_atomic(&path, |w| w.write_all(b"first")).unwrap();
        write_atomic(&path, |w| {
            w.write_all(b"sec")?;
            w.write_all(b"ond")
        })
        .unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(
            !path.with_extension("tmp").exists(),
            "the temp file is renamed away"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
