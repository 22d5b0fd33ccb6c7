//! Test-only payload generators shared by the unit tests and the
//! integration property suite (`tests/properties.rs` includes this file).

use tilestore_testkit::prop::Source;

/// Up to 63 random cells, each lane offset from the cell's seed byte.
pub fn payload(s: &mut Source, cell_size: usize) -> Vec<u8> {
    let cells_seed = s.vec_of(0, 63, Source::u8);
    // Expand to whole cells.
    let mut out = Vec::with_capacity(cells_seed.len() * cell_size);
    for b in cells_seed {
        for lane in 0..cell_size {
            out.push(b.wrapping_add(lane as u8));
        }
    }
    out
}

/// Structured payloads that exercise the codecs' sweet spots: constant
/// runs, ramps (long literals crossing the 128-byte cap; with multi-byte
/// cells also short repeats at random offsets), sparse spikes and noise.
pub fn structured(s: &mut Source, cell_size: usize) -> Vec<u8> {
    match s.weighted(&[1, 1, 1, 1]) {
        0 => {
            // constant
            let b = s.u8();
            let n = s.usize_in(1, 199);
            vec![b; n * cell_size]
        }
        1 => {
            // ramp
            let n = s.usize_in(1, 199);
            (0..n * cell_size).map(|i| (i / cell_size) as u8).collect()
        }
        2 => {
            // sparse
            let n = s.usize_in(1, 199);
            let hits = s.vec_of(0, 7, |s| s.usize_in(0, 199));
            let mut v = vec![0u8; n * cell_size];
            for h in hits {
                let i = (h % n) * cell_size;
                v[i] = 0xEE;
            }
            v
        }
        _ => payload(s, cell_size),
    }
}
