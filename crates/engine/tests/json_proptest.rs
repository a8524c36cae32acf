//! Property tests for the one JSON codec (`np_engine::json`): the escaper
//! and the `f64` writer must read back exactly what they wrote, and the
//! reader must turn any bytes into a value or a typed error, never a
//! panic or an abort.

use np_engine::json::{self, Json};
use proptest::prelude::*;

/// Arbitrary Unicode strings. One character in four is ASCII (quotes,
/// backslashes and control characters included); the rest are drawn from
/// the whole scalar range, so most lie outside the Basic Multilingual
/// Plane.
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec((0u32..4, 0u32..0x11_0000), 0..48).prop_map(|cps| {
        cps.into_iter()
            .filter_map(|(pick, cp)| char::from_u32(if pick == 0 { cp % 0x80 } else { cp }))
            .collect()
    })
}

/// A committed perf-trajectory artifact: real writer output to corrupt.
fn bench_file() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_fault_recovery.json"
    );
    std::fs::read_to_string(path).expect("committed BENCH_fault_recovery.json")
}

proptest! {
    #[test]
    fn escaped_strings_parse_back_to_themselves(s in text()) {
        let literal = json::escape(&s);
        prop_assert_eq!(json::parse(&literal), Ok(Json::Str(s)));
    }

    #[test]
    fn surrogate_pair_escapes_decode_to_the_astral_character(cp in 0x1_0000u32..0x11_0000) {
        let c = char::from_u32(cp).unwrap();
        let mut units = [0u16; 2];
        c.encode_utf16(&mut units);
        let literal = format!("\"\\u{:04x}\\u{:04X}\"", units[0], units[1]);
        prop_assert_eq!(json::parse(&literal), Ok(Json::Str(c.to_string())));
        // Either half alone is an error.
        for unit in units {
            let lone = format!("\"\\u{unit:04x}\"");
            prop_assert!(json::parse(&lone).is_err());
        }
    }

    #[test]
    fn finite_f64_survives_writer_and_reader_bit_for_bit(bits in any::<u64>()) {
        let x = f64::from_bits(bits);
        prop_assume!(x.is_finite());
        let back = json::parse(&json::number(x)).unwrap().as_f64().unwrap();
        prop_assert_eq!(back.to_bits(), x.to_bits());
    }

    #[test]
    fn parse_of_junk_after_a_bench_prefix_never_panics(
        keep in any::<usize>(),
        junk in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let doc = bench_file();
        let bytes = [&doc.as_bytes()[..keep % doc.len()], &junk].concat();
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parse_of_a_truncated_bench_file_is_a_typed_error(cut in any::<usize>()) {
        let doc = bench_file();
        let trimmed = doc.trim_end();
        prop_assert!(json::parse(&trimmed[..cut % trimmed.len()]).is_err());
    }

    #[test]
    fn parse_of_a_bit_flipped_bench_file_never_panics(bit in any::<usize>()) {
        let mut bytes = bench_file().into_bytes();
        let bit = bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn committed_bench_file_parses() {
    let doc = json::parse(&bench_file()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("np-bench/v1")
    );
}
