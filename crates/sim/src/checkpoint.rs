//! Crash-safe engine snapshots: the versioned binary format, the cadence
//! policy and the atomic on-disk protocol.
//!
//! A long-running ingest process (the [`online`](crate::online) consumer, or
//! any [`SegmentedRun`] driver) can capture its complete resumable state at
//! a batch boundary with [`SegmentedRun::checkpoint`] and, after a crash,
//! rebuild it with [`Simulator::resume`] — the restored run continues
//! **byte-identically**: feeding it the post-checkpoint batches yields the
//! exact `SimReport` of an uninterrupted run (pinned by `tests/recovery.rs`
//! at 1/2/8 threads and every crash boundary).
//!
//! # Format
//!
//! Everything is hand-rolled little-endian — a checkpoint must be readable
//! by a *different* process, so the layout is owned here, versioned and
//! digest-guarded:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"CLSNAP\r\n"   (the \r\n catches text-mode mangling)
//! 8       4     format version (u32 LE)
//! 12      8     payload length in bytes (u64 LE)
//! 20      n     payload: the engine state, LE primitives, length-prefixed
//!               sequences (the `payload` submodule holds its layout)
//! 20+n    8     FNV-1a-64 digest of the payload (u64 LE)
//! ```
//!
//! Readers reject a wrong magic ([`CheckpointError::BadMagic`]), an unknown
//! version ([`CheckpointError::UnsupportedVersion`]), a short file
//! ([`CheckpointError::Truncated`]) and a digest mismatch
//! ([`CheckpointError::DigestMismatch`]) *before* interpreting a single
//! payload byte; structural violations inside the payload surface as
//! [`CheckpointError::Corrupt`]. All checkpoint writes in the workspace go
//! through [`SnapshotWriter`]/[`SnapshotReader`] — the `snapshot-format`
//! lint rule flags raw `Write` calls on engine state anywhere else.
//!
//! # Crash-consistency model
//!
//! [`write_snapshot_file`] never overwrites in place: the snapshot is
//! written to `<path>.tmp`, the previous `<path>` (if any) is renamed to
//! `<path>.prev` (last-good retention) and the tmp file is renamed into
//! place. A crash at any point leaves either the old snapshot, the old
//! snapshot plus a stray tmp, or the new snapshot — never a torn `<path>`.
//! [`resume_latest`] tries `<path>` first and falls back to `<path>.prev`,
//! so even a snapshot corrupted at rest costs one checkpoint interval, not
//! the run.

use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::engine::{SegmentedRun, Simulator};

mod payload;

/// The 8-byte snapshot magic. `\r\n` at the end makes accidental text-mode
/// translation detectable, PNG-style.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CLSNAP\r\n";

/// The snapshot format version this build writes and reads.
///
/// Version 2 added the spill state: the config's `spill` flag, the run's
/// spilled-day boundary and grouped day × ISP cells, and each swarm's
/// frozen-day list. Version 3 drops the `spill` flag byte: spilling is
/// unconditional, so the spilled-day boundary always equals the days the
/// watermark has sealed. Version 4 moves per-user bytes off the swarms:
/// the run's per-user totals (one row per user of the population, in user
/// id order, right after the population length) replace every swarm's
/// user list, and the active-set columns carry each session's user id,
/// watched and uploaded bytes instead of a slot into that list. Version 5
/// writes a frozen day as the report's point: its day, its demand bytes
/// and its capacity's `f64` bits (20 bytes instead of 28), so a restore
/// inverts no capacity. Version 6 drops each swarm's carry buffer (a pause
/// admits the sessions it would have held) and writes an active session as
/// one record of its inputs: end, user, watched and uploaded bytes,
/// bitrate and peer (41 bytes instead of 77 across ten column runs); the
/// restore derives its window quantities as admission does.
pub const SNAPSHOT_VERSION: u32 = 6;

/// Sanity bound on the declared payload length (1 GiB). A corrupted header
/// cannot make the reader allocate unbounded memory: real snapshots are
/// megabytes even at full scale.
const MAX_PAYLOAD_BYTES: u64 = 1 << 30;

/// FNV-1a 64-bit digest (offset basis `0xcbf29ce484222325`, prime
/// `0x100000001b3`) — the payload integrity check. Not cryptographic; it
/// guards against truncation, bit rot and version-skew accidents.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A failure while writing, reading or interpreting a snapshot.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying I/O operation failed.
    Io(io::Error),
    /// The stream does not start with [`SNAPSHOT_MAGIC`].
    BadMagic {
        /// The 8 bytes actually found.
        found: [u8; 8],
    },
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion {
        /// The version recorded in the header.
        found: u32,
        /// The version this build supports ([`SNAPSHOT_VERSION`]).
        supported: u32,
    },
    /// The stream ended before the declared header/payload/digest did.
    Truncated {
        /// Which part of the snapshot was cut short.
        context: &'static str,
    },
    /// The payload digest does not match the stored one.
    DigestMismatch {
        /// Digest stored in the snapshot trailer.
        stored: u64,
        /// Digest recomputed over the payload actually read.
        computed: u64,
    },
    /// The header and digest were intact but the payload violates the
    /// format's structural invariants (impossible lengths, an invalid
    /// configuration, trailing bytes).
    Corrupt(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::BadMagic { found } => {
                write!(f, "not a snapshot: bad magic {found:02x?}")
            }
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads {supported})"
            ),
            CheckpointError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            CheckpointError::DigestMismatch { stored, computed } => write!(
                f,
                "snapshot digest mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CheckpointError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Builds a snapshot payload and emits it inside the versioned envelope.
///
/// All primitives are little-endian; sequences are length-prefixed by the
/// caller via [`SnapshotWriter::put_len`]. The payload is buffered so the
/// header can carry its exact length and the trailer its digest.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    payload: Vec<u8>,
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.payload.push(v);
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.payload.push(u8::from(v));
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.payload.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.payload.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a sequence length (as `u64`) — the length prefix every
    /// variable-length field carries.
    pub fn put_len(&mut self, len: usize) {
        self.put_u64(len as u64);
    }

    /// Bytes buffered so far (the eventual payload length).
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Writes the complete snapshot — magic, version, length, payload,
    /// digest — to `out`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures as [`CheckpointError::Io`].
    pub fn finish(self, out: &mut impl Write) -> Result<(), CheckpointError> {
        out.write_all(&SNAPSHOT_MAGIC)?;
        out.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
        out.write_all(&(self.payload.len() as u64).to_le_bytes())?;
        out.write_all(&self.payload)?;
        out.write_all(&fnv1a(&self.payload).to_le_bytes())?;
        out.flush()?;
        Ok(())
    }
}

/// Validates a snapshot's envelope and hands out the payload as a cursor.
///
/// Construction reads and checks magic, version, length and digest in full;
/// the `take_*` accessors then decode the payload and fail with
/// [`CheckpointError::Truncated`] when a read runs past the declared
/// payload. [`SnapshotReader::finish`] asserts the payload was consumed
/// exactly.
#[derive(Debug)]
pub struct SnapshotReader {
    payload: Vec<u8>,
    pos: usize,
}

impl SnapshotReader {
    /// Reads and validates a complete snapshot from `input`.
    ///
    /// # Errors
    ///
    /// Any envelope violation: [`CheckpointError::BadMagic`],
    /// [`CheckpointError::UnsupportedVersion`],
    /// [`CheckpointError::Truncated`], [`CheckpointError::DigestMismatch`],
    /// or [`CheckpointError::Io`] for underlying read failures.
    pub fn from_reader(input: &mut impl Read) -> Result<Self, CheckpointError> {
        let mut magic = [0u8; 8];
        read_exact(input, &mut magic, "magic")?;
        if magic != SNAPSHOT_MAGIC {
            return Err(CheckpointError::BadMagic { found: magic });
        }
        let mut v4 = [0u8; 4];
        read_exact(input, &mut v4, "version")?;
        let version = u32::from_le_bytes(v4);
        if version != SNAPSHOT_VERSION {
            return Err(CheckpointError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let mut l8 = [0u8; 8];
        read_exact(input, &mut l8, "payload length")?;
        let len = u64::from_le_bytes(l8);
        if len > MAX_PAYLOAD_BYTES {
            return Err(CheckpointError::Corrupt("payload length out of bounds"));
        }
        // Read through `take` so a lying length cannot pre-allocate memory
        // the stream never delivers.
        let mut payload = Vec::new();
        let copied = io::copy(&mut input.take(len), &mut payload)?;
        if copied < len {
            return Err(CheckpointError::Truncated { context: "payload" });
        }
        let mut d8 = [0u8; 8];
        read_exact(input, &mut d8, "digest")?;
        let stored = u64::from_le_bytes(d8);
        let computed = fnv1a(&payload);
        if stored != computed {
            return Err(CheckpointError::DigestMismatch { stored, computed });
        }
        Ok(Self { payload, pos: 0 })
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&[u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.payload.len())
            .ok_or(CheckpointError::Truncated { context })?;
        let slice = &self.payload[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] past the payload end.
    pub fn take_u8(&mut self, context: &'static str) -> Result<u8, CheckpointError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a `bool` (one byte; any value other than 0/1 is corrupt).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] or [`CheckpointError::Corrupt`].
    pub fn take_bool(&mut self, context: &'static str) -> Result<bool, CheckpointError> {
        match self.take_u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Corrupt("bool byte out of range")),
        }
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] past the payload end.
    pub fn take_u32(&mut self, context: &'static str) -> Result<u32, CheckpointError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] past the payload end.
    pub fn take_u64(&mut self, context: &'static str) -> Result<u64, CheckpointError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its exact bit pattern.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] past the payload end.
    pub fn take_f64(&mut self, context: &'static str) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.take_u64(context)?))
    }

    /// Reads a sequence length prefix, bounded by the bytes actually left
    /// (every element takes ≥ 1 byte, so a larger claim is structurally
    /// impossible and rejected before any allocation).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] or [`CheckpointError::Corrupt`].
    pub fn take_len(&mut self, context: &'static str) -> Result<usize, CheckpointError> {
        self.take_len_of(1, context)
    }

    /// Reads a length prefix for a sequence of fixed-size records of
    /// `record_bytes` each, bounded by the bytes actually left, so the
    /// caller may allocate the whole sequence before reading it: no claim
    /// allocates more than the payload holds.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] or [`CheckpointError::Corrupt`].
    pub fn take_len_of(
        &mut self,
        record_bytes: u64,
        context: &'static str,
    ) -> Result<usize, CheckpointError> {
        let len = self.take_u64(context)?;
        let remaining = (self.payload.len() - self.pos) as u64;
        if len.saturating_mul(record_bytes) > remaining {
            return Err(CheckpointError::Corrupt("sequence length out of bounds"));
        }
        Ok(len as usize)
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] when payload bytes remain.
    pub fn finish(self) -> Result<(), CheckpointError> {
        if self.pos != self.payload.len() {
            return Err(CheckpointError::Corrupt("trailing payload bytes"));
        }
        Ok(())
    }
}

fn read_exact(
    input: &mut impl Read,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), CheckpointError> {
    input.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            CheckpointError::Truncated { context }
        } else {
            CheckpointError::Io(e)
        }
    })
}

/// How often a supervised run checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointCadence {
    /// Checkpoint after every `n` day closes (daily durability: `n = 1`).
    EveryDayCloses(u64),
    /// Checkpoint after every `n` watermark advances (batch-granular).
    EveryWatermarks(u64),
}

/// Where and how often a supervised run checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// The checkpoint cadence.
    pub cadence: CheckpointCadence,
    /// The snapshot file; `<path>.tmp` and `<path>.prev` siblings are
    /// managed by the atomic write protocol.
    pub path: PathBuf,
}

impl CheckpointPolicy {
    /// Checkpoint to `path` after every `n` day closes.
    pub fn every_day_closes(n: u64, path: impl Into<PathBuf>) -> Self {
        Self {
            cadence: CheckpointCadence::EveryDayCloses(n.max(1)),
            path: path.into(),
        }
    }

    /// Checkpoint to `path` after every `n` watermark advances.
    pub fn every_watermarks(n: u64, path: impl Into<PathBuf>) -> Self {
        Self {
            cadence: CheckpointCadence::EveryWatermarks(n.max(1)),
            path: path.into(),
        }
    }
}

/// The stateful side of a [`CheckpointPolicy`]: counts watermark advances
/// and day closes since the last snapshot and writes one (atomically) when
/// the cadence is due. Drivers call [`Checkpointer::note_watermark`] /
/// [`Checkpointer::note_day_close`] at the respective boundaries — see
/// [`Simulator::simulate_days_checkpointed`](crate::Simulator::simulate_days_checkpointed).
#[derive(Debug)]
pub struct Checkpointer {
    policy: CheckpointPolicy,
    since_watermarks: u64,
    since_day_closes: u64,
    written: u64,
}

impl Checkpointer {
    /// Creates a checkpointer with zeroed cadence counters.
    pub fn new(policy: CheckpointPolicy) -> Self {
        Self {
            policy,
            since_watermarks: 0,
            since_day_closes: 0,
            written: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &CheckpointPolicy {
        &self.policy
    }

    /// Snapshots written so far.
    pub fn checkpoints_written(&self) -> u64 {
        self.written
    }

    /// Notes one watermark advance; checkpoints `run` if the cadence is
    /// due. Returns whether a snapshot was written.
    ///
    /// # Errors
    ///
    /// Propagates snapshot-write failures (the run itself is unaffected).
    pub fn note_watermark(&mut self, run: &SegmentedRun) -> Result<bool, CheckpointError> {
        self.since_watermarks += 1;
        let due = matches!(
            self.policy.cadence,
            CheckpointCadence::EveryWatermarks(n) if self.since_watermarks >= n
        );
        self.write_if(due, run)
    }

    /// Notes one day close; checkpoints `run` if the cadence is due.
    /// Returns whether a snapshot was written.
    ///
    /// # Errors
    ///
    /// Propagates snapshot-write failures (the run itself is unaffected).
    pub fn note_day_close(&mut self, run: &SegmentedRun) -> Result<bool, CheckpointError> {
        self.since_day_closes += 1;
        let due = matches!(
            self.policy.cadence,
            CheckpointCadence::EveryDayCloses(n) if self.since_day_closes >= n
        );
        self.write_if(due, run)
    }

    fn write_if(&mut self, due: bool, run: &SegmentedRun) -> Result<bool, CheckpointError> {
        if !due {
            return Ok(false);
        }
        write_snapshot_file(run, &self.policy.path)?;
        self.since_watermarks = 0;
        self.since_day_closes = 0;
        self.written += 1;
        Ok(true)
    }
}

/// Appends `suffix` to a path's final component (`ckpt.bin` →
/// `ckpt.bin.tmp`), keeping the original name intact for the fallback scan.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// Atomically replaces `path` with a fresh snapshot of `run`.
///
/// Protocol: write `<path>.tmp` in full, rename the previous `<path>` (if
/// any) to `<path>.prev`, then rename the tmp file into place. Both renames
/// are atomic on POSIX filesystems, so a crash leaves a readable snapshot
/// at `<path>` or `<path>.prev` at every instant (see the module docs).
///
/// # Errors
///
/// Propagates I/O failures; the previous snapshot is untouched unless the
/// new one was written completely.
pub fn write_snapshot_file(run: &SegmentedRun, path: &Path) -> Result<(), CheckpointError> {
    let tmp = sibling(path, ".tmp");
    let mut file = fs::File::create(&tmp)?;
    run.checkpoint(&mut file)?;
    file.sync_all()?;
    drop(file);
    if path.exists() {
        fs::rename(path, sibling(path, ".prev"))?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads and validates one snapshot file into a resumed [`SegmentedRun`].
///
/// # Errors
///
/// Any [`CheckpointError`]: I/O, envelope or payload violations.
pub fn read_snapshot_file(path: &Path) -> Result<SegmentedRun, CheckpointError> {
    let mut file = fs::File::open(path)?;
    Simulator::resume(&mut file)
}

/// Resumes from the newest readable snapshot: `<path>` first, then the
/// `<path>.prev` last-good fallback. The primary snapshot's error is
/// returned when both fail (the fallback's failure is secondary — usually
/// the file simply doesn't exist yet).
///
/// # Errors
///
/// The error from `<path>` when neither it nor `<path>.prev` yields a
/// valid snapshot.
pub fn resume_latest(path: &Path) -> Result<SegmentedRun, CheckpointError> {
    match read_snapshot_file(path) {
        Ok(run) => Ok(run),
        Err(primary) => read_snapshot_file(&sibling(path, ".prev")).map_err(|_| primary),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn envelope_roundtrip() {
        let mut w = SnapshotWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 1);
        w.put_f64(0.25);
        w.put_len(3);
        let mut bytes = Vec::new();
        w.finish(&mut bytes).unwrap();

        let mut r = SnapshotReader::from_reader(&mut &bytes[..]).unwrap();
        assert_eq!(r.take_u8("a").unwrap(), 7);
        assert!(r.take_bool("b").unwrap());
        assert_eq!(r.take_u32("c").unwrap(), 0xdead_beef);
        assert_eq!(r.take_u64("d").unwrap(), u64::MAX - 1);
        assert_eq!(r.take_f64("e").unwrap(), 0.25);
        // A 3-element length claim with 0 bytes left must be rejected.
        assert!(matches!(r.take_len("f"), Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn record_length_is_bounded_by_the_bytes_left() {
        let mut w = SnapshotWriter::new();
        w.put_len(2);
        w.put_u64(1);
        w.put_u64(2);
        w.put_len(4);
        w.put_u64(3);
        w.put_u64(4);
        w.put_len(1 << 62);
        let mut bytes = Vec::new();
        w.finish(&mut bytes).unwrap();

        let mut r = SnapshotReader::from_reader(&mut &bytes[..]).unwrap();
        // Two 8-byte records, with 48 bytes left: fits.
        assert_eq!(r.take_len_of(8, "a").unwrap(), 2);
        r.take_u64("a").unwrap();
        r.take_u64("a").unwrap();
        // Four 8-byte records in the 24 bytes left are too many, though
        // four 1-byte elements would fit.
        assert!(matches!(
            r.take_len_of(8, "b"),
            Err(CheckpointError::Corrupt(_))
        ));
        r.take_u64("b").unwrap();
        r.take_u64("b").unwrap();
        // A claim whose byte size overflows `u64` is rejected, not wrapped.
        assert!(matches!(
            r.take_len_of(16, "c"),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    fn sample_bytes() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        for i in 0..32u64 {
            w.put_u64(i * 3);
        }
        let mut bytes = Vec::new();
        w.finish(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample_bytes();
        bytes[0] ^= 0xff;
        assert!(matches!(
            SnapshotReader::from_reader(&mut &bytes[..]),
            Err(CheckpointError::BadMagic { .. })
        ));
    }

    /// A future version and the previous one are both rejected from the
    /// header alone.
    #[test]
    fn rejects_future_version() {
        for version in [99, SNAPSHOT_VERSION - 1] {
            let mut bytes = sample_bytes();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                SnapshotReader::from_reader(&mut &bytes[..]),
                Err(CheckpointError::UnsupportedVersion {
                    found,
                    supported: SNAPSHOT_VERSION
                }) if found == version
            ));
        }
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = sample_bytes();
        for cut in 0..bytes.len() {
            let err = SnapshotReader::from_reader(&mut &bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn rejects_flipped_payload_bit() {
        let mut bytes = sample_bytes();
        let mid = 20 + (bytes.len() - 28) / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            SnapshotReader::from_reader(&mut &bytes[..]),
            Err(CheckpointError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn rejects_unbounded_payload_claim() {
        let mut bytes = sample_bytes();
        bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            SnapshotReader::from_reader(&mut &bytes[..]),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn finish_rejects_unconsumed_payload() {
        let bytes = sample_bytes();
        let mut r = SnapshotReader::from_reader(&mut &bytes[..]).unwrap();
        let _ = r.take_u64("first").unwrap();
        assert!(matches!(
            r.finish(),
            Err(CheckpointError::Corrupt("trailing payload bytes"))
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = CheckpointError::UnsupportedVersion {
            found: 2,
            supported: 1,
        };
        assert!(e.to_string().contains("version 2"));
        let e = CheckpointError::Truncated { context: "payload" };
        assert!(e.to_string().contains("payload"));
    }
}
