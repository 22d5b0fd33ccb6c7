//! Iteration over the cells of a domain and run decomposition of subdomains.
//!
//! Copying cells between a tile and a query result is the dominant CPU cost
//! of query post-processing (`t_cpu` in §6). Rather than iterating cell by
//! cell, [`RunIter`] decomposes the intersection region into *runs* —
//! maximal row-major-contiguous cell sequences — so each run is a single
//! `copy_from_slice`. Runs come from stride arithmetic: the iterator
//! precomputes each axis's step in the enclosing layout once and then only
//! adds, so a run costs a few integer operations and no allocation.

use crate::domain::Domain;
use crate::error::{GeometryError, Result};
use crate::point::Point;

/// Iterator over all points of a domain in row-major order.
#[derive(Debug, Clone)]
pub struct PointIter {
    domain: Domain,
    /// Next point to yield; `None` once exhausted.
    next: Option<Vec<i64>>,
}

impl PointIter {
    /// Creates an iterator over all cells of `domain`.
    #[must_use]
    pub fn new(domain: Domain) -> Self {
        let next = Some(domain.lowest().coords().to_vec());
        PointIter { domain, next }
    }
}

impl Iterator for PointIter {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        let current = self.next.take()?;
        let point = Point::new(current.clone()).expect("domain is non-empty");
        // Advance like a d-digit odometer, last axis fastest.
        let mut coords = current;
        for axis in (0..self.domain.dim()).rev() {
            if coords[axis] < self.domain.hi(axis) {
                coords[axis] += 1;
                self.next = Some(coords);
                return Some(point);
            }
            coords[axis] = self.domain.lo(axis);
        }
        // Wrapped around on every axis: iteration complete.
        Some(point)
    }
}

/// One contiguous run of cells shared between an enclosing domain and a
/// subdomain of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Offset (in cells) of the run start within the *enclosing* domain.
    pub outer_offset: u64,
    /// Offset (in cells) of the run start within the *subdomain*.
    pub inner_offset: u64,
    /// Length of the run in cells.
    pub len: u64,
}

/// Iterator over the row-major runs of `sub` inside `outer`.
///
/// Each yielded [`Run`] identifies `len` cells that are contiguous in both
/// the row-major layout of `outer` and that of `sub`, enabling bulk copies.
/// Runs come from stride arithmetic: one index vector over the axes but the
/// last (an odometer, last axis fastest) moves the outer offset by each
/// axis's precomputed stride, and the inner offset grows by `run_len` per
/// run; no point is built and nothing is allocated per run.
#[derive(Debug, Clone)]
pub struct RunIter {
    /// Odometer over every axis but the last (the run axis), outermost first.
    axes: Vec<RunAxis>,
    /// Offset in `outer` of the next run's first cell.
    outer_offset: u64,
    /// Index of the next run.
    run: u64,
    run_count: u64,
    run_len: u64,
}

/// One odometer digit of a [`RunIter`].
#[derive(Debug, Clone)]
struct RunAxis {
    /// Position along the axis, counted from `sub`'s lower bound.
    index: u64,
    /// Extent of `sub` along the axis.
    extent: u64,
    /// Cells `outer`'s layout skips per step along the axis.
    stride: u64,
}

impl RunIter {
    /// Creates the run decomposition of `sub` within `outer`.
    ///
    /// # Errors
    /// [`GeometryError::NotContained`] when `sub` is not inside `outer`;
    /// [`GeometryError::CellCountOverflow`] for oversized domains.
    pub fn new(outer: &Domain, sub: &Domain) -> Result<Self> {
        if !outer.contains_domain(sub) {
            return Err(GeometryError::NotContained);
        }
        // Both counts fit in u64, so no stride or offset below overflows.
        outer.cell_count()?;
        let inner_cells = sub.cell_count()?;
        let d = outer.dim();
        let run_len = sub.extent(d - 1);
        let mut axes = Vec::with_capacity(d - 1);
        let mut stride = 1u64;
        let mut outer_offset = 0u64;
        for axis in (0..d).rev() {
            outer_offset += sub.lo(axis).abs_diff(outer.lo(axis)) * stride;
            if axis + 1 < d {
                axes.push(RunAxis {
                    index: 0,
                    extent: sub.extent(axis),
                    stride,
                });
            }
            stride *= outer.extent(axis);
        }
        axes.reverse();
        Ok(RunIter {
            axes,
            outer_offset,
            run: 0,
            run_count: inner_cells / run_len,
            run_len,
        })
    }

    /// Total number of runs the iterator will yield.
    #[must_use]
    pub fn run_count(&self) -> u64 {
        self.run_count
    }

    /// Length of each run in cells.
    #[must_use]
    pub fn run_len(&self) -> u64 {
        self.run_len
    }
}

impl Iterator for RunIter {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        if self.run == self.run_count {
            return None;
        }
        let run = Run {
            outer_offset: self.outer_offset,
            inner_offset: self.run * self.run_len,
            len: self.run_len,
        };
        self.run += 1;
        // Advance the odometer, last axis fastest: a step adds the axis's
        // stride, a wrap takes back the steps it made.
        for axis in self.axes.iter_mut().rev() {
            axis.index += 1;
            if axis.index < axis.extent {
                self.outer_offset += axis.stride;
                break;
            }
            axis.index = 0;
            self.outer_offset -= (axis.extent - 1) * axis.stride;
        }
        Some(run)
    }
}

/// Bytes held in equal-length segments, read from `skip` bytes into the
/// first one: a tile stream left in the page frames it was read into, whose
/// cells start after the stream header and whose rows may straddle two
/// frames. A contiguous buffer is the one-segment case.
#[derive(Debug)]
pub struct Segmented<'a, T> {
    segments: &'a [T],
    segment_len: usize,
    skip: usize,
}

// A view of borrowed segments copies whatever the segments are.
impl<T> Clone for Segmented<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Segmented<'_, T> {}

impl<'a, T: AsRef<[u8]>> Segmented<'a, T> {
    /// Views `segments`, each `segment_len` bytes long (the last may be
    /// shorter), as one byte sequence starting `skip` bytes into the first.
    ///
    /// # Panics
    /// Panics if `segment_len` is 0 and there is more than one segment.
    #[must_use]
    pub fn new(segments: &'a [T], segment_len: usize, skip: usize) -> Self {
        assert!(
            segment_len > 0 || segments.len() <= 1,
            "empty segments cannot hold bytes"
        );
        Segmented {
            segments,
            segment_len,
            skip,
        }
    }

    /// Copies the `dst.len()` bytes at offset `at` of the sequence into
    /// `dst`, one `copy_from_slice` per segment they touch.
    ///
    /// # Panics
    /// Panics if the bytes run past the last segment.
    pub fn read_at(&self, at: usize, dst: &mut [u8]) {
        let mut pos = self.skip + at;
        if let [only] = self.segments {
            dst.copy_from_slice(&only.as_ref()[pos..pos + dst.len()]);
            return;
        }
        let mut done = 0;
        while done < dst.len() {
            let from = pos % self.segment_len;
            let n = (self.segment_len - from).min(dst.len() - done);
            let seg = self.segments[pos / self.segment_len].as_ref();
            dst[done..done + n].copy_from_slice(&seg[from..from + n]);
            done += n;
            pos += n;
        }
    }
}

/// Copies the cells of `src_region` from a buffer laid out over `src_domain`
/// into a buffer laid out over `dst_domain`, for `cell_size`-byte cells.
///
/// `region` must be contained in both domains. Returns the number of cells
/// copied (used for `t_cpu` accounting). The source in pieces is
/// [`copy_region_segmented`].
///
/// # Errors
/// [`GeometryError::NotContained`] when the region is outside either domain.
///
/// # Panics
/// Panics if either buffer is smaller than its domain requires.
pub fn copy_region(
    src_domain: &Domain,
    src: &[u8],
    dst_domain: &Domain,
    dst: &mut [u8],
    region: &Domain,
    cell_size: usize,
) -> Result<u64> {
    let src = Segmented::new(std::slice::from_ref(&src), src.len(), 0);
    copy_region_segmented(src_domain, src, dst_domain, dst, region, cell_size)
}

/// [`copy_region`] from a source held in segments: each run is copied with
/// one `copy_from_slice` per segment it touches, so a tile's cells paste
/// straight from the page frames that hold them.
///
/// # Errors
/// [`GeometryError::NotContained`] when the region is outside either domain.
///
/// # Panics
/// Panics if either buffer is smaller than its domain requires.
pub fn copy_region_segmented<T: AsRef<[u8]>>(
    src_domain: &Domain,
    src: Segmented<'_, T>,
    dst_domain: &Domain,
    dst: &mut [u8],
    region: &Domain,
    cell_size: usize,
) -> Result<u64> {
    if !dst_domain.contains_domain(region) {
        return Err(GeometryError::NotContained);
    }
    let src_runs = RunIter::new(src_domain, region)?;
    let dst_runs = RunIter::new(dst_domain, region)?;
    let mut copied = 0u64;
    for (s, d) in src_runs.zip(dst_runs) {
        debug_assert_eq!(s.len, d.len);
        debug_assert_eq!(s.inner_offset, d.inner_offset);
        let len = s.len as usize * cell_size;
        let d0 = d.outer_offset as usize * cell_size;
        src.read_at(s.outer_offset as usize * cell_size, &mut dst[d0..d0 + len]);
        copied += s.len;
    }
    Ok(copied)
}

/// Fills the cells of `region` within a buffer laid out over `domain` with a
/// repeating `cell` pattern (the default value of uncovered areas, §4).
///
/// # Errors
/// [`GeometryError::NotContained`] when the region is outside the domain.
pub fn fill_region(domain: &Domain, buf: &mut [u8], region: &Domain, cell: &[u8]) -> Result<u64> {
    let runs = RunIter::new(domain, region)?;
    let cell_size = cell.len();
    let mut filled = 0u64;
    for run in runs {
        let start = run.outer_offset as usize * cell_size;
        for i in 0..run.len as usize {
            let at = start + i * cell_size;
            buf[at..at + cell_size].copy_from_slice(cell);
        }
        filled += run.len;
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Domain {
        s.parse().unwrap()
    }

    #[test]
    fn point_iter_visits_all_cells_in_order() {
        let dom = d("[0:1,5:7]");
        let pts: Vec<Point> = PointIter::new(dom.clone()).collect();
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0], Point::from_slice(&[0, 5]));
        assert_eq!(pts[1], Point::from_slice(&[0, 6]));
        assert_eq!(pts[3], Point::from_slice(&[1, 5]));
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn point_iter_single_cell() {
        let pts: Vec<Point> = PointIter::new(d("[3:3,4:4]")).collect();
        assert_eq!(pts, vec![Point::from_slice(&[3, 4])]);
    }

    #[test]
    fn run_iter_covers_subdomain_exactly() {
        let outer = d("[0:3,0:3]");
        let sub = d("[1:2,1:2]");
        let runs: Vec<Run> = RunIter::new(&outer, &sub).unwrap().collect();
        assert_eq!(runs.len(), 2);
        assert_eq!(
            runs[0],
            Run {
                outer_offset: 5,
                inner_offset: 0,
                len: 2
            }
        );
        assert_eq!(
            runs[1],
            Run {
                outer_offset: 9,
                inner_offset: 2,
                len: 2
            }
        );
    }

    #[test]
    fn run_iter_requires_containment() {
        assert!(RunIter::new(&d("[0:3,0:3]"), &d("[2:5,0:1]")).is_err());
    }

    #[test]
    fn run_iter_full_domain_is_one_run_per_row_block() {
        let outer = d("[0:2,0:4]");
        let runs: Vec<Run> = RunIter::new(&outer, &outer).unwrap().collect();
        assert_eq!(runs.len(), 3);
        assert!(runs.iter().all(|r| r.len == 5));
        assert_eq!(runs[2].outer_offset, 10);
    }

    #[test]
    fn run_iter_one_dimensional() {
        let runs: Vec<Run> = RunIter::new(&d("[0:9]"), &d("[3:5]")).unwrap().collect();
        assert_eq!(
            runs,
            vec![Run {
                outer_offset: 3,
                inner_offset: 0,
                len: 3
            }]
        );
    }

    #[test]
    fn copy_region_moves_expected_bytes() {
        // 4x4 source of u8 cells numbered 0..16; copy the center 2x2 into a
        // 2x2 destination.
        let src_dom = d("[0:3,0:3]");
        let src: Vec<u8> = (0..16).collect();
        let dst_dom = d("[1:2,1:2]");
        let mut dst = vec![0u8; 4];
        let copied = copy_region(&src_dom, &src, &dst_dom, &mut dst, &dst_dom, 1).unwrap();
        assert_eq!(copied, 4);
        assert_eq!(dst, vec![5, 6, 9, 10]);
    }

    #[test]
    fn copy_region_multibyte_cells() {
        let src_dom = d("[0:1,0:1]");
        let src: Vec<u8> = vec![1, 1, 2, 2, 3, 3, 4, 4]; // 2-byte cells
        let dst_dom = d("[0:1,0:1]");
        let mut dst = vec![0u8; 8];
        let region = d("[1:1,0:1]");
        copy_region(&src_dom, &src, &dst_dom, &mut dst, &region, 2).unwrap();
        assert_eq!(dst, vec![0, 0, 0, 0, 3, 3, 4, 4]);
    }

    #[test]
    fn segmented_copy_reads_across_segment_boundaries() {
        // A 4x4 u8 source behind a 3-byte header, in 5-byte segments: rows
        // 0, 1 and 2 each straddle a boundary.
        let mut stream = vec![0xEE; 3];
        stream.extend(0..16u8);
        let segments: Vec<&[u8]> = stream.chunks(5).collect();
        let src_dom = d("[0:3,0:3]");
        let region = d("[0:3,1:2]");
        let mut dst = vec![0u8; 16];
        let src = Segmented::new(&segments, 5, 3);
        let copied = copy_region_segmented(&src_dom, src, &src_dom, &mut dst, &region, 1).unwrap();
        assert_eq!(copied, 8);
        assert_eq!(dst, vec![0, 1, 2, 0, 0, 5, 6, 0, 0, 9, 10, 0, 0, 13, 14, 0]);
        let mut whole = vec![0u8; 16];
        src.read_at(0, &mut whole);
        assert_eq!(whole, (0..16).collect::<Vec<u8>>());
    }

    #[test]
    fn fill_region_writes_default_cells() {
        let dom = d("[0:1,0:2]");
        let mut buf = vec![9u8; 6];
        let filled = fill_region(&dom, &mut buf, &d("[0:0,1:2]"), &[7]).unwrap();
        assert_eq!(filled, 2);
        assert_eq!(buf, vec![9, 7, 7, 9, 9, 9]);
    }

    #[test]
    fn run_count_matches_iteration() {
        let outer = d("[0:5,0:5,0:5]");
        let sub = d("[1:4,2:3,0:5]");
        let it = RunIter::new(&outer, &sub).unwrap();
        assert_eq!(it.run_count(), 8);
        assert_eq!(it.run_len(), 6);
        assert_eq!(it.clone().count() as u64, it.run_count());
    }
}
