//! Property tests: an `np-manifest/v1` record must decode back to itself
//! and re-encode to the exact bytes it came from. The manifest is an
//! append-only journal that resumed sweeps replay, so encoding has to be
//! a pure, byte-stable function of the record. And a crash can leave any
//! bytes on its last line: junk, a truncated record or a flipped bit must
//! parse to a value or a typed error, never a panic.

use np_sweep::manifest::{JobRecord, JobStatus};
use proptest::prelude::*;

/// Characters that exercise every escaping path in the encoder: quotes,
/// backslashes, named escapes, raw control characters, multi-byte and
/// astral-plane code points.
const PALETTE: &[char] = &[
    'a',
    'Z',
    '0',
    '-',
    ' ',
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\u{1}',
    '\u{1f}',
    'é',
    'δ',
    '→',
    '\u{1d6c5}',
];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PALETTE.len(), 0..16)
        .prop_map(|ix| ix.into_iter().map(|i| PALETTE[i]).collect())
}

proptest! {
    #[test]
    fn record_encode_decode_encode_is_byte_identical(
        job in text(),
        protocol in text(),
        n in 1usize..1_000_000,
        h in 0usize..1_000_000,
        s0 in 0usize..1_000,
        s1 in 0usize..1_000,
        delta in 0.0f64..0.5,
        c1 in 0.0f64..64.0,
        seed in any::<u64>(),
        budget in any::<u64>(),
        status_ix in 0usize..3,
        with_checkpoint in any::<bool>(),
        checkpoint in text(),
        round in any::<u64>(),
        consensus in any::<bool>(),
        correct in any::<usize>(),
    ) {
        let rec = JobRecord {
            job,
            protocol,
            n,
            h,
            s0,
            s1,
            delta,
            c1,
            seed,
            budget,
            status: [JobStatus::Pending, JobStatus::Checkpointed, JobStatus::Done][status_ix],
            checkpoint: with_checkpoint.then_some(checkpoint),
            round,
            consensus,
            correct,
        };
        let line = rec.to_json_line();
        let decoded = JobRecord::parse(&line).unwrap();
        prop_assert_eq!(&decoded, &rec);
        prop_assert_eq!(decoded.to_json_line(), line);
    }
}

/// One valid record line, varied by `seed`.
fn record_line(seed: u64) -> String {
    JobRecord {
        job: format!("sf-n64-d0.1-r{}", seed % 7),
        protocol: "sf".into(),
        n: 64,
        h: 64,
        s0: 0,
        s1: 1,
        delta: 0.1,
        c1: 1.0,
        seed,
        budget: 400,
        status: JobStatus::Checkpointed,
        checkpoint: Some("snaps/δ→\"\n.npsnap".into()),
        round: seed % 400,
        consensus: seed.is_multiple_of(2),
        correct: 17,
    }
    .to_json_line()
}

proptest! {
    #[test]
    fn parse_of_junk_after_a_valid_prefix_never_panics(
        seed in any::<u64>(),
        keep in any::<usize>(),
        junk in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let line = record_line(seed);
        let bytes = [&line.as_bytes()[..keep % line.len()], &junk].concat();
        let _ = JobRecord::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parse_of_a_truncated_record_is_a_typed_error(seed in any::<u64>(), cut in any::<usize>()) {
        let line = record_line(seed);
        let bytes = &line.as_bytes()[..cut % line.len()];
        prop_assert!(JobRecord::parse(&String::from_utf8_lossy(bytes)).is_err());
    }

    #[test]
    fn parse_of_a_bit_flipped_record_never_panics(seed in any::<u64>(), bit in any::<usize>()) {
        let mut bytes = record_line(seed).into_bytes();
        let bit = bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let _ = JobRecord::parse(&String::from_utf8_lossy(&bytes));
    }
}
