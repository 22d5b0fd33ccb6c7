//! Dense multidimensional arrays — the values flowing in and out of the
//! storage manager.
//!
//! An [`Array`] owns a row-major byte buffer over a bounded [`Domain`].
//! Typed construction and access go through [`CellValue`]; the engine
//! itself only moves bytes.

use tilestore_geometry::{copy_region, fill_region, Domain, Point, PointIter, RowMajor};

use crate::celltype::CellValue;
use crate::error::{EngineError, Result};

/// A dense, row-major multidimensional array of fixed-size cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Array {
    domain: Domain,
    cell_size: usize,
    data: Vec<u8>,
}

impl Array {
    /// An array over `domain` with every cell set to `default` (whose
    /// length is the cell size).
    ///
    /// # Errors
    /// [`EngineError::Geometry`] when the domain size overflows.
    pub fn filled(domain: Domain, default: &[u8]) -> Result<Self> {
        let cells = domain.cell_count()?;
        let cell_size = default.len();
        let mut data = vec![0u8; (cells as usize) * cell_size];
        if default.iter().any(|&b| b != 0) {
            for chunk in data.chunks_exact_mut(cell_size) {
                chunk.copy_from_slice(default);
            }
        }
        Ok(Array {
            domain,
            cell_size,
            data,
        })
    }

    /// An array from raw row-major bytes.
    ///
    /// # Errors
    /// [`EngineError::DataLengthMismatch`] when `data.len()` differs from
    /// `cells × cell_size`.
    pub fn from_bytes(domain: Domain, cell_size: usize, data: Vec<u8>) -> Result<Self> {
        let expected = domain.size_bytes(cell_size)?;
        if data.len() as u64 != expected {
            return Err(EngineError::DataLengthMismatch {
                expected,
                got: data.len() as u64,
            });
        }
        Ok(Array {
            domain,
            cell_size,
            data,
        })
    }

    /// An array from typed cells in row-major order.
    ///
    /// # Errors
    /// [`EngineError::DataLengthMismatch`] when the value count differs from
    /// the domain's cell count.
    pub fn from_cells<T: CellValue>(domain: Domain, cells: &[T]) -> Result<Self> {
        let expected = domain.cell_count()?;
        if cells.len() as u64 != expected {
            return Err(EngineError::DataLengthMismatch {
                expected: expected * T::SIZE as u64,
                got: (cells.len() * T::SIZE) as u64,
            });
        }
        let mut data = vec![0u8; cells.len() * T::SIZE];
        for (chunk, value) in data.chunks_exact_mut(T::SIZE).zip(cells) {
            value.write_bytes(chunk);
        }
        Ok(Array {
            domain,
            cell_size: T::SIZE,
            data,
        })
    }

    /// An array computed cell-by-cell from a function of the coordinates.
    ///
    /// # Errors
    /// [`EngineError::Geometry`] when the domain size overflows.
    pub fn from_fn<T: CellValue, F: FnMut(&Point) -> T>(domain: Domain, mut f: F) -> Result<Self> {
        let cells = domain.cell_count()? as usize;
        let mut data = vec![0u8; cells * T::SIZE];
        for (chunk, point) in data
            .chunks_exact_mut(T::SIZE)
            .zip(PointIter::new(domain.clone()))
        {
            f(&point).write_bytes(chunk);
        }
        Ok(Array {
            domain,
            cell_size: T::SIZE,
            data,
        })
    }

    /// The array's spatial domain.
    #[must_use]
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Cell size in bytes.
    #[must_use]
    pub fn cell_size(&self) -> usize {
        self.cell_size
    }

    /// The raw row-major bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable access to the raw bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// The raw row-major bytes, moved out of the array.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.data
    }

    /// Total size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.data.len() as u64
    }

    /// Reads the typed cell at `point`.
    ///
    /// # Errors
    /// [`EngineError::CellSizeMismatch`] when `T` has the wrong size;
    /// [`EngineError::Geometry`] when the point is outside the domain.
    pub fn get<T: CellValue>(&self, point: &Point) -> Result<T> {
        if T::SIZE != self.cell_size {
            return Err(EngineError::CellSizeMismatch {
                expected: self.cell_size,
                got: T::SIZE,
            });
        }
        let layout = RowMajor::new(self.domain.clone())?;
        let off = layout.offset_of(point)? as usize * self.cell_size;
        Ok(T::read_bytes(&self.data[off..off + self.cell_size]))
    }

    /// Writes the typed cell at `point`.
    ///
    /// # Errors
    /// Same as [`Array::get`].
    pub fn set<T: CellValue>(&mut self, point: &Point, value: T) -> Result<()> {
        if T::SIZE != self.cell_size {
            return Err(EngineError::CellSizeMismatch {
                expected: self.cell_size,
                got: T::SIZE,
            });
        }
        let layout = RowMajor::new(self.domain.clone())?;
        let off = layout.offset_of(point)? as usize * self.cell_size;
        value.write_bytes(&mut self.data[off..off + self.cell_size]);
        Ok(())
    }

    /// Decodes the whole array into typed cells in row-major order.
    ///
    /// # Errors
    /// [`EngineError::CellSizeMismatch`] when `T` has the wrong size.
    pub fn to_cells<T: CellValue>(&self) -> Result<Vec<T>> {
        if T::SIZE != self.cell_size {
            return Err(EngineError::CellSizeMismatch {
                expected: self.cell_size,
                got: T::SIZE,
            });
        }
        Ok(self
            .data
            .chunks_exact(self.cell_size)
            .map(T::read_bytes)
            .collect())
    }

    /// Extracts a rectangular sub-array.
    ///
    /// # Errors
    /// [`EngineError::Geometry`] when `region` is not inside the domain.
    pub fn extract(&self, region: &Domain) -> Result<Array> {
        let mut out = Array::filled(region.clone(), &vec![0u8; self.cell_size])?;
        copy_region(
            &self.domain,
            &self.data,
            region,
            &mut out.data,
            region,
            self.cell_size,
        )?;
        Ok(out)
    }

    /// Copies the overlapping region of `src` into this array. Returns the
    /// number of cells copied (0 when the domains are disjoint).
    ///
    /// # Errors
    /// [`EngineError::CellSizeMismatch`] when cell sizes differ.
    pub fn paste(&mut self, src: &Array) -> Result<u64> {
        if src.cell_size != self.cell_size {
            return Err(EngineError::CellSizeMismatch {
                expected: self.cell_size,
                got: src.cell_size,
            });
        }
        let Some(overlap) = self.domain.intersection(&src.domain) else {
            return Ok(0);
        };
        Ok(copy_region(
            &src.domain,
            &src.data,
            &self.domain,
            &mut self.data,
            &overlap,
            self.cell_size,
        )?)
    }

    /// Fills `region` with a repeated `cell` value. Returns cells filled.
    ///
    /// # Errors
    /// [`EngineError::Geometry`] when `region` escapes the domain.
    pub fn fill(&mut self, region: &Domain, cell: &[u8]) -> Result<u64> {
        debug_assert_eq!(cell.len(), self.cell_size);
        Ok(fill_region(&self.domain, &mut self.data, region, cell)?)
    }

    /// Reinterprets the array over a new domain with the same cell count —
    /// used to drop the degenerate axes of a *section* result (§5.1 (d)).
    /// Row-major order is preserved when removing extent-1 axes, so the
    /// byte buffer is reused as-is.
    ///
    /// # Errors
    /// [`EngineError::DataLengthMismatch`] when the cell counts differ.
    pub fn reshaped(self, domain: Domain) -> Result<Array> {
        let expected = domain.size_bytes(self.cell_size)?;
        if self.data.len() as u64 != expected {
            return Err(EngineError::DataLengthMismatch {
                expected,
                got: self.data.len() as u64,
            });
        }
        Ok(Array {
            domain,
            cell_size: self.cell_size,
            data: self.data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::celltype::Rgb;

    fn d(s: &str) -> Domain {
        s.parse().unwrap()
    }

    #[test]
    fn filled_and_get_set() {
        let mut a = Array::filled(d("[0:1,0:1]"), &7u32.to_le_bytes()).unwrap();
        assert_eq!(a.get::<u32>(&Point::from_slice(&[1, 1])).unwrap(), 7);
        a.set(&Point::from_slice(&[0, 1]), 42u32).unwrap();
        assert_eq!(a.get::<u32>(&Point::from_slice(&[0, 1])).unwrap(), 42);
        assert_eq!(a.size_bytes(), 16);
        assert!(a.get::<u8>(&Point::from_slice(&[0, 0])).is_err());
        assert!(a.get::<u32>(&Point::from_slice(&[5, 5])).is_err());
    }

    #[test]
    fn from_cells_round_trip() {
        let cells: Vec<u16> = (0..12).collect();
        let a = Array::from_cells(d("[0:2,0:3]"), &cells).unwrap();
        assert_eq!(a.to_cells::<u16>().unwrap(), cells);
        assert!(Array::from_cells(d("[0:2,0:3]"), &cells[..5]).is_err());
    }

    #[test]
    fn from_fn_uses_coordinates() {
        let a = Array::from_fn(d("[0:2,0:2]"), |p| (p[0] * 10 + p[1]) as u32).unwrap();
        assert_eq!(a.get::<u32>(&Point::from_slice(&[2, 1])).unwrap(), 21);
    }

    #[test]
    fn extract_and_paste() {
        let a = Array::from_fn(d("[0:3,0:3]"), |p| (p[0] * 4 + p[1]) as u8).unwrap();
        let sub = a.extract(&d("[1:2,1:2]")).unwrap();
        assert_eq!(sub.to_cells::<u8>().unwrap(), vec![5, 6, 9, 10]);

        let mut big = Array::filled(d("[0:3,0:3]"), &[0xFF]).unwrap();
        let copied = big.paste(&sub).unwrap();
        assert_eq!(copied, 4);
        assert_eq!(big.get::<u8>(&Point::from_slice(&[1, 2])).unwrap(), 6);
        assert_eq!(big.get::<u8>(&Point::from_slice(&[0, 0])).unwrap(), 0xFF);

        // Paste with partial overlap clips correctly.
        let mut side = Array::filled(d("[2:5,2:5]"), &[0]).unwrap();
        let copied = side.paste(&a).unwrap();
        assert_eq!(copied, 4); // overlap [2:3,2:3]
        assert_eq!(side.get::<u8>(&Point::from_slice(&[3, 3])).unwrap(), 15);

        // Disjoint paste copies nothing.
        let mut far = Array::filled(d("[50:51,50:51]"), &[0]).unwrap();
        assert_eq!(far.paste(&a).unwrap(), 0);
    }

    #[test]
    fn rgb_arrays() {
        let a = Array::from_fn(d("[0:1,0:1]"), |p| Rgb::new(p[0] as u8, p[1] as u8, 99)).unwrap();
        assert_eq!(a.cell_size(), 3);
        assert_eq!(
            a.get::<Rgb>(&Point::from_slice(&[1, 0])).unwrap(),
            Rgb::new(1, 0, 99)
        );
    }

    #[test]
    fn reshaped_drops_degenerate_axes() {
        let a = Array::from_cells(d("[5:5,0:3]"), &[1u8, 2, 3, 4]).unwrap();
        let flat = a.reshaped(d("[0:3]")).unwrap();
        assert_eq!(flat.to_cells::<u8>().unwrap(), vec![1, 2, 3, 4]);
        let bad = Array::from_cells(d("[0:3]"), &[1u8, 2, 3, 4]).unwrap();
        assert!(bad.reshaped(d("[0:4]")).is_err());
    }

    #[test]
    fn fill_region_with_default() {
        let mut a = Array::filled(d("[0:2,0:2]"), &[1]).unwrap();
        let n = a.fill(&d("[1:1,0:2]"), &[9]).unwrap();
        assert_eq!(n, 3);
        assert_eq!(a.to_cells::<u8>().unwrap(), vec![1, 1, 1, 9, 9, 9, 1, 1, 1]);
    }

    #[test]
    fn from_bytes_validates_length() {
        assert!(Array::from_bytes(d("[0:1]"), 2, vec![0; 4]).is_ok());
        assert!(matches!(
            Array::from_bytes(d("[0:1]"), 2, vec![0; 5]),
            Err(EngineError::DataLengthMismatch {
                expected: 4,
                got: 5
            })
        ));
    }
}
