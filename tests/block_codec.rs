//! Byte-level properties of the block frame — the one spill-file and wire format
//! (`df_storage::spill`, layout table in its module docs).
//!
//! * **Round trip**: random mixed-type frames and a set of pinned edge cases survive
//!   bit for bit, schema slots included, as `StoredPart::Frame` and as
//!   `StoredPart::Block`, through a spill file and through an in-memory pipe carrying
//!   several frames back to back with a clean `Ok(None)` at the boundary.
//! * **Totality**: arbitrary bytes, every prefix of a valid frame and every
//!   single-byte mutation of one are `SpillCorruption` — never a panic, never a hang.
//!   Mutated and arbitrary *payloads* inside an honest header (right length, right
//!   checksum — what the checksum cannot catch) either decode or are
//!   `SpillCorruption`. In every case the decoder's peak allocation stays within a
//!   small constant × the input length.
//! * **Lying headers**: a `payload_len` that is too long, too short or `u64::MAX`
//!   reads only what the stream delivers.
//!
//! A failing case prints the offending bytes as hex, so it replays with
//! `decode_part(&hex_bytes, ..)`.

// The allocation bound is measured, not argued: a counting `GlobalAlloc` needs
// `unsafe impl`, which the workspace otherwise denies. It only forwards to `System`.
#![allow(unsafe_code)]

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as Counter;

use proptest::prelude::*;

use common::identical;
use df_core::columnar::ColumnBlock;
use df_core::dataframe::{Column, DataFrame};
use df_storage::spill::{
    decode_part, encode_part, frame_checksum, read_spill_part, write_spill_part, StoredPart,
    FRAME_HEADER_LEN,
};
use df_storage::wire::{read_framed_part, write_framed_part};
use df_types::cell::{cell, Cell};
use df_types::domain::Domain;
use df_types::error::{DfError, DfResult};
use df_types::labels::Labels;
use df_workloads::{random_frame, RandomFrameConfig};

// ---------------------------------------------------------------------------
// Per-thread allocation accounting
// ---------------------------------------------------------------------------

thread_local! {
    /// Bytes this thread has allocated minus bytes it has freed since the last reset.
    static LIVE: Counter<isize> = const { Counter::new(0) };
    /// The highest `LIVE` has been since the last reset.
    static PEAK: Counter<isize> = const { Counter::new(0) };
}

struct CountingAlloc;

fn note(delta: isize) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are plain thread-local integers with no
// destructor and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` and return its result with the peak number of bytes it held allocated at
/// once (on this thread, over and above what was live when it started).
fn with_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    let out = f();
    (out, PEAK.with(Counter::get).max(0) as usize)
}

/// The allocation bound: a decoded `Cell` is 32 bytes and can cost one byte on the
/// wire, and a vector grown by pushing can hold twice its length, so 64× is the
/// honest constant; the slack covers error strings and the first small vectors.
fn alloc_bound(input_len: usize) -> usize {
    64 * input_len + 4096
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// xorshift64*: the byte source for "arbitrary bytes" (the vendored proptest only
/// draws numbers).
struct Bytes(u64);

impl Bytes {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn take(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| (self.next() >> 32) as u8).collect()
    }
}

/// An honest header — right magic, right length, right checksum — around `payload`.
fn sealed(payload: &[u8]) -> Vec<u8> {
    // The magic is whatever the encoder writes first; the format keeps one copy of it.
    let mut frame = encode_part(&StoredPart::Frame(DataFrame::empty()))[..8].to_vec();
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(&frame_checksum(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

fn is_corruption<T>(result: &DfResult<T>) -> bool {
    matches!(result, Err(DfError::SpillCorruption { .. }))
}

fn mixed_frame(rows: usize, seed: u64, null_fraction: f64) -> DataFrame {
    let mut frame = random_frame(&RandomFrameConfig {
        rows,
        int_cols: 2,
        float_cols: 2,
        category_cols: 2,
        null_fraction,
        seed,
    })
    .unwrap();
    // One declared category column, so dictionary codes are on the wire too.
    frame.columns_mut()[5].declare_domain(Domain::Category);
    frame
}

/// Frames the text codecs this format replaced were most likely to get wrong.
fn edge_frames() -> Vec<(&'static str, DataFrame)> {
    let nan_payload = f64::from_bits(0x7ff8_0000_dead_beef);
    let nested = Cell::List(vec![
        cell(1),
        Cell::List(vec![cell("a\nb"), Cell::Null, Cell::List(vec![])]),
        cell(-0.0),
    ]);
    let strings = [
        "",
        "\n",
        "\u{1f}",
        "\u{1e}",
        "\\",
        "\\n",
        "a\u{1f}b\u{1e}c\\",
        "naïve ✓",
    ];
    let tricky = DataFrame::from_parts(
        vec![
            Column::with_domain(
                vec![
                    cell(nan_payload),
                    cell(-0.0),
                    cell(f64::NEG_INFINITY),
                    Cell::Null,
                ],
                Domain::Float,
            ),
            // Untyped numeric-looking strings: must come back as strings, slot un-induced.
            Column::new(vec![cell("10"), cell("020"), Cell::Null, cell("")]),
            Column::new(vec![nested.clone(), cell(true), cell(2.5), Cell::Null]),
            Column::new(vec![cell(true), cell(false), Cell::Null, cell(true)]),
            Column::new(vec![cell(i64::MIN), cell(i64::MAX), cell(0), Cell::Null]),
        ],
        // Non-positional labels of every kind.
        Labels::new(vec![cell(1.5), Cell::Null, cell(true), nested.clone()]),
        Labels::new(vec![
            cell(nan_payload),
            cell("raw"),
            Cell::List(vec![cell("multi"), cell(0)]),
            cell(false),
            cell(-7),
        ]),
    )
    .unwrap();
    let mut dict = DataFrame::from_columns(
        vec!["cat", "all_null", "typed_all_null"],
        vec![
            vec![cell("x"), Cell::Null, cell("y"), cell("x"), cell("")],
            vec![Cell::Null; 5],
            vec![Cell::Null; 5],
        ],
    )
    .unwrap();
    dict.columns_mut()[0].declare_domain(Domain::Category);
    dict.columns_mut()[2].declare_domain(Domain::Float);
    vec![
        ("tricky", tricky),
        ("dict and all-null", dict),
        (
            "strings",
            DataFrame::from_columns(vec!["s"], vec![strings.iter().map(|s| cell(*s)).collect()])
                .unwrap()
                .with_row_labels(strings.to_vec())
                .unwrap(),
        ),
        (
            "0 rows",
            DataFrame::from_columns(vec!["a", "b"], vec![vec![], vec![]]).unwrap(),
        ),
        (
            "0 columns",
            DataFrame::from_parts(vec![], Labels::positional(4), Labels::default()).unwrap(),
        ),
        ("0 x 0", DataFrame::empty()),
        ("65 rows", mixed_frame(65, 9, 0.3)), // one bit into a second validity word
    ]
}

/// Both stored forms of `frame`, through a file and through a pipe.
fn assert_round_trips(name: &str, frame: &DataFrame) {
    let block = ColumnBlock::from_frame(frame);
    let parts = [
        StoredPart::Frame(frame.clone()),
        StoredPart::Block(block.clone()),
    ];
    let dir = std::env::temp_dir().join(format!(
        "block_codec_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("part.spill");
    let mut pipe = Vec::new();
    for part in &parts {
        write_spill_part(part, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, encode_part(part), "{name}: file bytes are the frame");
        check_back(
            name,
            &read_spill_part(&path).unwrap(),
            frame,
            &block,
            &bytes,
        );
        // Several frames back to back on one stream.
        for _ in 0..2 {
            write_framed_part(&mut pipe, part, "test.wire").unwrap();
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    let mut stream = pipe.as_slice();
    for _ in 0..4 {
        let back = read_framed_part(&mut stream, "test.wire").unwrap().unwrap();
        check_back(name, &back, frame, &block, &pipe);
    }
    assert!(
        read_framed_part(&mut stream, "test.wire")
            .unwrap()
            .is_none(),
        "{name}: the stream must end cleanly at the frame boundary"
    );
}

fn check_back(name: &str, back: &StoredPart, frame: &DataFrame, block: &ColumnBlock, bytes: &[u8]) {
    let StoredPart::Block(decoded) = back else {
        panic!("{name}: frames decode to blocks");
    };
    let replay = || format!("{name}: round trip diverged; frame bytes {}", hex(bytes));
    let decoded_frame = decoded.to_frame();
    assert!(identical(&decoded_frame, frame), "{}", replay());
    assert_eq!(decoded_frame.schema(), frame.schema(), "{}", replay());
    // A frame is typed on the way out exactly as `ColumnBlock::from_frame` types it,
    // so either stored form reads back in the same layouts.
    let layouts =
        |b: &ColumnBlock| -> Vec<_> { b.columns().iter().map(std::mem::discriminant).collect() };
    assert_eq!(layouts(decoded), layouts(block), "{}", replay());
}

#[test]
fn the_allocation_meter_sees_what_a_hostile_length_would_cost() {
    let (kept, peak) = with_peak(|| Vec::<u64>::with_capacity(1 << 17));
    assert!(peak >= 8 << 17, "meter read {peak} for a 1 MiB reservation");
    assert!(peak > alloc_bound(400), "the bound would not notice it");
    drop(kept);
}

#[test]
fn pinned_edge_cases_round_trip() {
    for (name, frame) in edge_frames() {
        assert_round_trips(name, &frame);
    }
}

#[test]
fn lying_payload_lengths_read_only_what_the_stream_delivers() {
    let honest = encode_part(&StoredPart::Frame(mixed_frame(20, 3, 0.2)));
    let payload_len = (honest.len() - FRAME_HEADER_LEN) as u64;
    for (what, lie) in [
        ("too long", payload_len + 5),
        ("too short", payload_len - 5),
        ("u64::MAX", u64::MAX),
    ] {
        let mut frame = honest.clone();
        frame[8..16].copy_from_slice(&lie.to_le_bytes());
        let (whole, peak) = with_peak(|| decode_part(&frame, "test"));
        assert!(is_corruption(&whole), "{what}: got {whole:?}");
        assert!(
            peak <= alloc_bound(frame.len()),
            "{what}: decode allocated {peak}"
        );

        let mut stream = frame.as_slice();
        let (streamed, peak) = with_peak(|| read_framed_part(&mut stream, "test"));
        assert!(is_corruption(&streamed), "{what}: got {streamed:?}");
        assert!(
            peak <= alloc_bound(frame.len()),
            "{what}: read allocated {peak}"
        );
        // A short length leaves the unread tail on the stream — where it is not a
        // frame; a long one consumed everything and then hit the end.
        let left = if lie < payload_len { 5 } else { 0 };
        assert_eq!(stream.len(), left, "{what}");
        if left > 0 {
            assert!(is_corruption(&read_framed_part(&mut stream, "test")));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_frames_round_trip(
        rows in 0usize..70,
        seed in 0u64..100_000,
        null_fraction in 0.0f64..1.0,
    ) {
        assert_round_trips("random", &mixed_frame(rows, seed, null_fraction));
    }

    #[test]
    fn arbitrary_bytes_are_corruption(len in 0usize..400, seed in 1u64..u64::MAX, magic in 0u8..2) {
        let mut bytes = Bytes(seed).take(len);
        if magic == 1 && len >= 8 {
            // Half the cases get past the magic check.
            bytes[..8].copy_from_slice(&sealed(&[])[..8]);
        }
        let (whole, peak) = with_peak(|| decode_part(&bytes, "test"));
        prop_assert!(is_corruption(&whole), "decode_part gave {whole:?} for {}", hex(&bytes));
        prop_assert!(peak <= alloc_bound(len), "decode_part allocated {peak} for {}", hex(&bytes));
        let (streamed, peak) = with_peak(|| read_framed_part(&mut bytes.as_slice(), "test"));
        match &streamed {
            Ok(None) => prop_assert!(bytes.is_empty()),
            other => prop_assert!(is_corruption(other), "reader gave {other:?} for {}", hex(&bytes)),
        }
        prop_assert!(peak <= alloc_bound(len), "reader allocated {peak} for {}", hex(&bytes));
    }

    #[test]
    fn arbitrary_payloads_in_an_honest_frame_decode_or_are_corruption(
        len in 0usize..400,
        seed in 1u64..u64::MAX,
        rows in 0u64..9,
        cols in 0u64..4,
    ) {
        // A plausible shape up front steers the random tail into the column decoders.
        let mut payload = [rows.to_le_bytes(), cols.to_le_bytes()].concat();
        let mut source = Bytes(seed);
        // Small tags and counts are what get past the first byte of each field.
        payload.extend(source.take(len).into_iter().map(|b| if b % 3 == 0 { b % 8 } else { b }));
        let frame = sealed(&payload);
        let (result, peak) = with_peak(|| decode_part(&frame, "test"));
        prop_assert!(
            result.is_ok() || is_corruption(&result),
            "decode_part gave {result:?} for {}", hex(&frame)
        );
        prop_assert!(peak <= alloc_bound(frame.len()), "allocated {peak} for {}", hex(&frame));
    }

    #[test]
    fn prefixes_and_mutations_of_a_valid_frame_are_corruption(
        rows in 0usize..12,
        seed in 0u64..100_000,
        null_fraction in 0.0f64..0.6,
        flip in 1u8..=255,
    ) {
        let frame = mixed_frame(rows, seed, null_fraction);
        let bytes = encode_part(&StoredPart::Frame(frame));
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            prop_assert!(is_corruption(&decode_part(prefix, "test")), "prefix {cut} of {}", hex(&bytes));
            match read_framed_part(&mut &prefix[..], "test") {
                Ok(None) => prop_assert_eq!(cut, 0),
                other => prop_assert!(is_corruption(&other), "prefix {cut} of {}: {other:?}", hex(&bytes)),
            }
        }
        for at in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[at] ^= flip;
            // The header is checked field by field and the checksum changes with any
            // one payload byte, so a single flipped byte never gets through.
            let (result, peak) = with_peak(|| decode_part(&mutated, "test"));
            prop_assert!(is_corruption(&result), "byte {at} ^ {flip:#04x} of {}: {result:?}", hex(&bytes));
            prop_assert!(peak <= alloc_bound(bytes.len()), "byte {at}: allocated {peak}");
            if at >= FRAME_HEADER_LEN {
                // The same mutation under a recomputed checksum reaches the payload
                // decoder: it may still be a valid frame (a flipped float bit), but
                // it must never be anything other than `Ok` or corruption.
                let resealed = sealed(&mutated[FRAME_HEADER_LEN..]);
                let (result, peak) = with_peak(|| decode_part(&resealed, "test"));
                prop_assert!(
                    result.is_ok() || is_corruption(&result),
                    "resealed byte {at} ^ {flip:#04x} of {}: {result:?}", hex(&bytes)
                );
                prop_assert!(peak <= alloc_bound(bytes.len()), "resealed byte {at}: allocated {peak}");
            }
        }
    }
}
