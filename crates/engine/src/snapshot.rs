//! Versioned binary snapshots of a mid-run [`crate::world::World`] —
//! the `np-snap/v1` format.
//!
//! A snapshot captures everything the round loop needs to continue a run
//! in a fresh process: the round counter, the population configuration,
//! the channel (kind, sampling mode, and the exact noise rows), the
//! fault-plan cursor and in-flight fault effects (ramp, sleep horizons),
//! the optional opinion series and trace, and the whole protocol state.
//! It deliberately excludes the worker-thread count (a pure performance
//! knob), any custom [`crate::metrics::RunObserver`] (observers are code,
//! not data), and all wall-clock [`crate::metrics::StageTimings`]
//! (nondeterministic by nature).
//!
//! # The byte-identical-continuation contract
//!
//! Because every draw comes from a per-`(seed, round, agent, stage)`
//! stream ([`crate::streams`]), no RNG state needs serializing: running
//! rounds `0..T` straight produces the same trajectory — and the same
//! trace/summary artifacts — as snapshotting at any `t`, restoring in a
//! fresh process, and running `t..T`, at any thread count on either side.
//! `World::snapshot`/`World::restore` round-trip every field that feeds
//! the trajectory; the continuation tests in the workspace root pin the
//! contract for SF, SSF and SF-ALT, with and without active fault plans.
//!
//! # Encoding
//!
//! Hand-rolled little-endian binary, no serde (mirroring the hand-rolled
//! JSON codec in [`crate::json`]): integers as fixed-width little-endian
//! bytes, `f64` via [`f64::to_bits`] (bit-exact round trips, including
//! negative zero), strings as a `u64` length followed by UTF-8 bytes.
//! Encode→decode→encode is byte-equal by construction; the proptest suite
//! pins it. Decoders must consume the buffer exactly —
//! [`SnapReader::finish`] rejects trailing bytes, so truncated or
//! oversized payloads cannot slip through.
//!
//! Protocols opt in by giving their per-agent record a [`SnapshotAgent`]
//! codec. Every population state with [`AgentRecords`] of that record —
//! a [`crate::protocol::ScalarState`] or a struct-of-arrays state alike —
//! is then a [`SnapshotState`] in the one per-agent layout: the agent
//! count, then each agent's record in id order (gathered on encode,
//! scattered on decode). The record's `SNAP_TAG` names the layout version;
//! restoring a snapshot under a different tag fails loudly instead of
//! misreading bytes.
//!
//! The decoder reads untrusted bytes: every input must come back as a
//! value or an [`crate::EngineError::BadSnapshot`], never a panic, so the
//! compiler rules out panicking indexes, `panic!`, `unwrap` and `expect`
//! here, along with narrowing casts that would truncate silently.

#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation
)]

use crate::metrics::RoundMetrics;
use crate::opinion::Opinion;
use crate::population::Role;
use crate::protocol::{AgentRecords, AgentState, ColumnarState};
use crate::{EngineError, Result};

/// The format magic, written first in every snapshot.
pub const SNAP_MAGIC: &str = "np-snap/v1";

/// The `np-snap/v2` magic: identical to v1 except for one extra section —
/// the topology spec, right after the sampling-mode byte — emitted only by
/// worlds running on a non-complete [`crate::topology::Topology`].
/// Complete-graph worlds keep writing byte-identical v1 snapshots, so
/// every pre-topology snapshot still restores unchanged.
pub const SNAP_MAGIC_V2: &str = "np-snap/v2";

fn bad(detail: impl Into<String>) -> EngineError {
    EngineError::BadSnapshot {
        detail: detail.into(),
    }
}

/// Append-only writer for the `np-snap/v1` binary encoding.
///
/// All multi-byte integers are little-endian; see the module docs for the
/// full encoding. The writer is infallible — errors exist only on the
/// decode side.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer into its byte buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Writes an `i64`, little-endian two's complement.
    pub fn put_i64(&mut self, x: i64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (sizes are platform-independent on
    /// disk).
    pub fn put_usize(&mut self, x: usize) {
        self.put_u64(x as u64);
    }

    /// Writes an `f64` via its IEEE-754 bit pattern — bit-exact round
    /// trips, no formatting involved.
    pub fn put_f64(&mut self, x: f64) {
        self.put_u64(x.to_bits());
    }

    /// Writes a boolean as one byte (0/1).
    pub fn put_bool(&mut self, x: bool) {
        self.put_u8(u8::from(x));
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes an [`Opinion`] as its symbol index.
    pub fn put_opinion(&mut self, o: Opinion) {
        self.put_u8(o.as_byte());
    }

    /// Writes an optional [`Opinion`]: 0 = none, 1 = zero, 2 = one.
    pub fn put_opt_opinion(&mut self, o: Option<Opinion>) {
        match o {
            None => self.put_u8(0),
            Some(o) => self.put_u8(1 + o.as_byte()),
        }
    }

    /// Writes a [`Role`]: 0 = non-source, 1/2 = source preferring 0/1.
    pub fn put_role(&mut self, r: Role) {
        match r {
            Role::NonSource => self.put_u8(0),
            Role::Source(p) => self.put_u8(1 + p.as_byte()),
        }
    }
}

/// Cursor-based reader matching [`SnapWriter`], byte for byte.
///
/// Every accessor returns [`EngineError::BadSnapshot`] on underrun or
/// malformed data; [`SnapReader::finish`] additionally rejects snapshots
/// with unconsumed trailing bytes.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Wraps a byte buffer for reading from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8]> {
        let slice = self
            .pos
            .checked_add(len)
            .and_then(|end| self.buf.get(self.pos..end))
            .ok_or_else(|| {
                bad(format!(
                    "truncated snapshot: wanted {len} bytes at offset {}, have {}",
                    self.pos,
                    self.remaining()
                ))
            })?;
        self.pos += len;
        Ok(slice)
    }

    /// Reads exactly `N` bytes as an array.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let bytes = self.take(N)?;
        <[u8; N]>::try_from(bytes).map_err(|_| bad(format!("expected {N} bytes")))
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8> {
        let [byte] = self.take_array()?;
        Ok(byte)
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `i64`.
    pub fn take_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take_array()?))
    }

    /// Reads a `u64` and converts it to `usize`, rejecting values that do
    /// not fit the platform.
    pub fn take_usize(&mut self) -> Result<usize> {
        let x = self.take_u64()?;
        usize::try_from(x).map_err(|_| bad(format!("size {x} exceeds this platform's usize")))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn take_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a boolean byte, rejecting values other than 0/1.
    pub fn take_bool(&mut self) -> Result<bool> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            x => Err(bad(format!("invalid boolean byte {x}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String> {
        let len = self.take_usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("string payload is not UTF-8"))
    }

    /// Reads an [`Opinion`] symbol index.
    pub fn take_opinion(&mut self) -> Result<Opinion> {
        let i = self.take_u8()?;
        Opinion::from_index(usize::from(i)).ok_or_else(|| bad(format!("invalid opinion byte {i}")))
    }

    /// Reads an optional [`Opinion`] (see
    /// [`SnapWriter::put_opt_opinion`]).
    pub fn take_opt_opinion(&mut self) -> Result<Option<Opinion>> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(Opinion::Zero)),
            2 => Ok(Some(Opinion::One)),
            x => Err(bad(format!("invalid optional-opinion byte {x}"))),
        }
    }

    /// Reads a [`Role`] (see [`SnapWriter::put_role`]).
    pub fn take_role(&mut self) -> Result<Role> {
        match self.take_u8()? {
            0 => Ok(Role::NonSource),
            1 => Ok(Role::Source(Opinion::Zero)),
            2 => Ok(Role::Source(Opinion::One)),
            x => Err(bad(format!("invalid role byte {x}"))),
        }
    }

    /// Requires the buffer to be fully consumed — the last step of every
    /// decoder, so length mismatches surface as errors rather than silent
    /// misalignment.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadSnapshot`] if bytes remain.
    pub fn finish(&self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(bad(format!(
                "snapshot has {} unconsumed trailing bytes",
                self.remaining()
            )))
        }
    }
}

/// A per-agent record that can round-trip through the `np-snap/v1`
/// encoding. Implementing this lifts the codec to every population state
/// holding such records via the blanket [`SnapshotState`] impl.
pub trait SnapshotAgent: AgentState + Sized {
    /// Layout-version tag for this agent encoding (e.g. `"sf-agent/v1"`).
    /// Restoring under a different tag is rejected.
    const SNAP_TAG: &'static str;

    /// Appends this agent's full state to `w`: at least one byte, which
    /// [`crate::world::World::restore`] relies on to bound the declared
    /// population by the input length.
    fn encode_agent(&self, w: &mut SnapWriter);

    /// Decodes one agent previously written by
    /// [`SnapshotAgent::encode_agent`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadSnapshot`] on malformed bytes.
    fn decode_agent(r: &mut SnapReader<'_>) -> Result<Self>;
}

/// A whole-population protocol state that can round-trip through the
/// `np-snap/v1` encoding — the hook [`crate::world::World::snapshot`]
/// and [`crate::world::World::restore`] are generic over. Implemented
/// once, for every [`AgentRecords`] state whose records are
/// [`SnapshotAgent`]s.
pub trait SnapshotState: ColumnarState + Sized {
    /// Layout-version tag for this state encoding — the record's
    /// [`SnapshotAgent::SNAP_TAG`] (e.g. `"sf-agent/v1"`).
    const SNAP_TAG: &'static str;

    /// Appends the full population state to `w`.
    fn encode_state(&self, w: &mut SnapWriter);

    /// Decodes a state previously written by
    /// [`SnapshotState::encode_state`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadSnapshot`] on malformed bytes.
    fn decode_state(r: &mut SnapReader<'_>) -> Result<Self>;
}

/// Encodes one recorded [`RoundMetrics`] (trace persistence).
pub(crate) fn encode_round_metrics(m: &RoundMetrics, w: &mut SnapWriter) {
    w.put_u64(m.round);
    w.put_usize(m.n);
    w.put_usize(m.correct);
    w.put_usize(m.stages.len());
    for &(stage, count) in &m.stages {
        w.put_u32(stage);
        w.put_usize(count);
    }
    w.put_usize(m.weak_formed);
    w.put_usize(m.weak_correct);
    w.put_usize(m.faults.len());
    for label in &m.faults {
        w.put_str(label);
    }
}

/// Decodes one [`RoundMetrics`] written by [`encode_round_metrics`].
pub(crate) fn decode_round_metrics(r: &mut SnapReader<'_>) -> Result<RoundMetrics> {
    let round = r.take_u64()?;
    let n = r.take_usize()?;
    let correct = r.take_usize()?;
    let stage_count = r.take_usize()?;
    let mut stages = Vec::with_capacity(stage_count.min(r.remaining()));
    for _ in 0..stage_count {
        let stage = r.take_u32()?;
        let count = r.take_usize()?;
        stages.push((stage, count));
    }
    let weak_formed = r.take_usize()?;
    let weak_correct = r.take_usize()?;
    let fault_count = r.take_usize()?;
    let mut faults = Vec::with_capacity(fault_count.min(r.remaining()));
    for _ in 0..fault_count {
        faults.push(r.take_str()?);
    }
    Ok(RoundMetrics {
        round,
        n,
        correct,
        stages,
        weak_formed,
        weak_correct,
        faults,
    })
}

impl<S> SnapshotState for S
where
    S: AgentRecords,
    S::Agent: SnapshotAgent,
{
    const SNAP_TAG: &'static str = <S::Agent as SnapshotAgent>::SNAP_TAG;

    fn encode_state(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for id in 0..self.len() {
            self.agent(id).encode_agent(w);
        }
    }

    fn decode_state(r: &mut SnapReader<'_>) -> Result<Self> {
        let n = r.take_usize()?;
        let mut agents = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            agents.push(S::Agent::decode_agent(r)?);
        }
        S::from_agents(agents)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_byte_exactly() {
        let mut w = SnapWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-42);
        w.put_usize(12345);
        w.put_f64(-0.0);
        w.put_f64(std::f64::consts::PI);
        w.put_bool(true);
        w.put_str("np-snap/v1 ünïcode");
        w.put_opinion(Opinion::One);
        w.put_opt_opinion(None);
        w.put_opt_opinion(Some(Opinion::Zero));
        w.put_role(Role::Source(Opinion::One));
        w.put_role(Role::NonSource);
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.take_i64().unwrap(), -42);
        assert_eq!(r.take_usize().unwrap(), 12345);
        let z = r.take_f64().unwrap();
        assert_eq!(z.to_bits(), (-0.0f64).to_bits(), "negative zero survives");
        assert_eq!(r.take_f64().unwrap(), std::f64::consts::PI);
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_str().unwrap(), "np-snap/v1 ünïcode");
        assert_eq!(r.take_opinion().unwrap(), Opinion::One);
        assert_eq!(r.take_opt_opinion().unwrap(), None);
        assert_eq!(r.take_opt_opinion().unwrap(), Some(Opinion::Zero));
        assert_eq!(r.take_role().unwrap(), Role::Source(Opinion::One));
        assert_eq!(r.take_role().unwrap(), Role::NonSource);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_errors_not_panics() {
        let mut w = SnapWriter::new();
        w.put_u32(1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.take_u64().is_err());
        let mut r = SnapReader::new(&bytes[..2]);
        assert!(r.take_u32().is_err());
        let mut r = SnapReader::new(&[]);
        assert!(r.take_u8().is_err());
        assert!(r.take_str().is_err());
    }

    #[test]
    fn invalid_enum_bytes_are_rejected() {
        for bytes in [[2u8], [3u8], [9u8]] {
            let mut r = SnapReader::new(&bytes);
            if bytes[0] >= 2 {
                assert!(r.take_opinion().is_err() || bytes[0] < 2);
            }
        }
        let mut r = SnapReader::new(&[3]);
        assert!(r.take_opt_opinion().is_err());
        let mut r = SnapReader::new(&[3]);
        assert!(r.take_role().is_err());
        let mut r = SnapReader::new(&[2]);
        assert!(r.take_bool().is_err());
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut w = SnapWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let _ = r.take_u8().unwrap();
        let err = r.finish().unwrap_err();
        assert!(matches!(err, EngineError::BadSnapshot { .. }), "{err}");
        assert_eq!(r.remaining(), 1);
        let _ = r.take_u8().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn oversized_string_length_is_an_error() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.take_str().is_err());
    }

    #[test]
    fn writer_accessors() {
        let mut w = SnapWriter::new();
        assert!(w.is_empty());
        w.put_str(SNAP_MAGIC);
        assert_eq!(w.len(), 8 + SNAP_MAGIC.len());
        assert!(!w.is_empty());
    }
}
