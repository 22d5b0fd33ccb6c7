//! Induced operations: cell-wise arithmetic and comparison on arrays.
//!
//! RasDaMan's query language applies scalar operations "induced" over every
//! cell of an MDD. The engine provides the typed kernels; the query layer
//! composes them with trims and condensers (e.g. `count_cells(img > 100)`).
//!
//! Arithmetic keeps the operand's cell type (values are computed in `f64`
//! and clamped back into the type's range); comparisons produce a `u8`
//! boolean array (1 = true) whose default is 0.

use crate::array::Array;
use crate::celltype::CellType;
use crate::error::{EngineError, Result};

/// The induced binary operations (array ⊕ scalar).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (division by zero yields the type's clamped infinity)
    Div,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `!=`
    Ne,
}

impl BinOp {
    /// Whether the operation produces a boolean array.
    #[must_use]
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Gt | BinOp::Ge | BinOp::Lt | BinOp::Le | BinOp::Eq | BinOp::Ne
        )
    }

    /// The query language's symbol for the operation.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
        }
    }
}

/// Decodes one cell to `f64` (numeric cell types only).
pub(crate) fn decode_cell(cell: &CellType, bytes: &[u8]) -> Result<f64> {
    crate::aggregate::decode_numeric(cell, bytes)
}

/// Encodes an `f64` back into the cell type, clamping to the type's range.
fn encode_cell(cell: &CellType, value: f64, out: &mut [u8]) -> Result<()> {
    macro_rules! clamp_int {
        ($t:ty) => {{
            let v = value.clamp(<$t>::MIN as f64, <$t>::MAX as f64) as $t;
            out.copy_from_slice(&v.to_le_bytes());
        }};
    }
    match cell.name.as_str() {
        "u8" => clamp_int!(u8),
        "i8" => clamp_int!(i8),
        "u16" => clamp_int!(u16),
        "i16" => clamp_int!(i16),
        "u32" => clamp_int!(u32),
        "i32" => clamp_int!(i32),
        "u64" => clamp_int!(u64),
        "i64" => clamp_int!(i64),
        "f32" => out.copy_from_slice(&(value as f32).to_le_bytes()),
        "f64" => out.copy_from_slice(&value.to_le_bytes()),
        other => {
            return Err(EngineError::BadAccessRegion(format!(
                "cell type {other:?} does not support induced arithmetic"
            )))
        }
    }
    Ok(())
}

/// Applies `array ⊕ scalar` cell-wise. Returns the result array and its
/// cell type (the operand's type for arithmetic, boolean `u8` for
/// comparisons).
///
/// # Errors
/// [`EngineError::BadAccessRegion`] for non-numeric cell types;
/// [`EngineError::CellSizeMismatch`] when `cell` does not match the array.
pub fn induce_scalar(
    cell: &CellType,
    array: &Array,
    op: BinOp,
    scalar: f64,
) -> Result<(Array, CellType)> {
    if cell.size != array.cell_size() {
        return Err(EngineError::CellSizeMismatch {
            expected: cell.size,
            got: array.cell_size(),
        });
    }
    let cells = array.domain().cells() as usize;
    if op.is_comparison() {
        let mut data = vec![0u8; cells];
        for (i, chunk) in array.bytes().chunks_exact(cell.size).enumerate() {
            let v = decode_cell(cell, chunk)?;
            let truth = match op {
                BinOp::Gt => v > scalar,
                BinOp::Ge => v >= scalar,
                BinOp::Lt => v < scalar,
                BinOp::Le => v <= scalar,
                BinOp::Eq => v == scalar,
                BinOp::Ne => v != scalar,
                _ => unreachable!("comparison ops only"),
            };
            data[i] = u8::from(truth);
        }
        let out = Array::from_bytes(array.domain().clone(), 1, data)?;
        Ok((out, CellType::of::<u8>()))
    } else {
        let mut data = vec![0u8; cells * cell.size];
        for (chunk_in, chunk_out) in array
            .bytes()
            .chunks_exact(cell.size)
            .zip(data.chunks_exact_mut(cell.size))
        {
            let v = decode_cell(cell, chunk_in)?;
            let r = match op {
                BinOp::Add => v + scalar,
                BinOp::Sub => v - scalar,
                BinOp::Mul => v * scalar,
                BinOp::Div => v / scalar,
                _ => unreachable!("arithmetic ops only"),
            };
            encode_cell(cell, r, chunk_out)?;
        }
        let out = Array::from_bytes(array.domain().clone(), cell.size, data)?;
        Ok((out, cell.clone()))
    }
}

/// Applies a unary function cell-wise over numeric arrays (used by tests
/// and available to embedding applications).
///
/// # Errors
/// Same as [`induce_scalar`].
pub fn induce_map<F: FnMut(f64) -> f64>(cell: &CellType, array: &Array, mut f: F) -> Result<Array> {
    if cell.size != array.cell_size() {
        return Err(EngineError::CellSizeMismatch {
            expected: cell.size,
            got: array.cell_size(),
        });
    }
    let mut data = vec![0u8; array.bytes().len()];
    for (chunk_in, chunk_out) in array
        .bytes()
        .chunks_exact(cell.size)
        .zip(data.chunks_exact_mut(cell.size))
    {
        let v = decode_cell(cell, chunk_in)?;
        encode_cell(cell, f(v), chunk_out)?;
    }
    Array::from_bytes(array.domain().clone(), cell.size, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilestore_geometry::{Domain, Point};

    fn d(s: &str) -> Domain {
        s.parse().unwrap()
    }

    #[test]
    fn arithmetic_keeps_type_and_clamps() {
        let cell = CellType::of::<u8>();
        let a = Array::from_cells(d("[0:3]"), &[10u8, 100, 200, 250]).unwrap();
        let (plus, t) = induce_scalar(&cell, &a, BinOp::Add, 50.0).unwrap();
        assert_eq!(t.name, "u8");
        assert_eq!(plus.to_cells::<u8>().unwrap(), vec![60, 150, 250, 255]); // clamped
        let (minus, _) = induce_scalar(&cell, &a, BinOp::Sub, 50.0).unwrap();
        assert_eq!(minus.to_cells::<u8>().unwrap(), vec![0, 50, 150, 200]);
        let (double, _) = induce_scalar(&cell, &a, BinOp::Mul, 2.0).unwrap();
        assert_eq!(double.to_cells::<u8>().unwrap(), vec![20, 200, 255, 255]);
        let (half, _) = induce_scalar(&cell, &a, BinOp::Div, 2.0).unwrap();
        assert_eq!(half.to_cells::<u8>().unwrap(), vec![5, 50, 100, 125]);
    }

    #[test]
    fn comparisons_produce_boolean_arrays() {
        let cell = CellType::of::<i32>();
        let a = Array::from_cells(d("[0:4]"), &[-5i32, 0, 5, 10, 15]).unwrap();
        let (gt, t) = induce_scalar(&cell, &a, BinOp::Gt, 5.0).unwrap();
        assert_eq!(t.size, 1);
        assert_eq!(gt.to_cells::<u8>().unwrap(), vec![0, 0, 0, 1, 1]);
        let (eq, _) = induce_scalar(&cell, &a, BinOp::Eq, 0.0).unwrap();
        assert_eq!(eq.to_cells::<u8>().unwrap(), vec![0, 1, 0, 0, 0]);
        let (ne, _) = induce_scalar(&cell, &a, BinOp::Ne, 0.0).unwrap();
        assert_eq!(ne.to_cells::<u8>().unwrap(), vec![1, 0, 1, 1, 1]);
        let (le, _) = induce_scalar(&cell, &a, BinOp::Le, 0.0).unwrap();
        assert_eq!(le.to_cells::<u8>().unwrap(), vec![1, 1, 0, 0, 0]);
    }

    #[test]
    fn float_arithmetic_is_exact() {
        let cell = CellType::of::<f64>();
        let a = Array::from_cells(d("[0:2]"), &[1.5f64, -2.25, 0.0]).unwrap();
        let (r, _) = induce_scalar(&cell, &a, BinOp::Mul, 4.0).unwrap();
        assert_eq!(r.to_cells::<f64>().unwrap(), vec![6.0, -9.0, 0.0]);
    }

    #[test]
    fn rgb_rejected() {
        let cell = CellType::of::<crate::celltype::Rgb>();
        let a = Array::filled(d("[0:1]"), &[1, 2, 3]).unwrap();
        assert!(induce_scalar(&cell, &a, BinOp::Add, 1.0).is_err());
        assert!(induce_scalar(&cell, &a, BinOp::Gt, 1.0).is_err());
    }

    #[test]
    fn induce_map_applies_function() {
        let cell = CellType::of::<u16>();
        let a = Array::from_cells(d("[0:2]"), &[1u16, 2, 3]).unwrap();
        let sq = induce_map(&cell, &a, |v| v * v).unwrap();
        assert_eq!(sq.to_cells::<u16>().unwrap(), vec![1, 4, 9]);
    }

    #[test]
    fn preserves_domain() {
        let cell = CellType::of::<u32>();
        let a = Array::from_fn(d("[3:5,7:9]"), |p| (p[0] + p[1]) as u32).unwrap();
        let (r, _) = induce_scalar(&cell, &a, BinOp::Add, 1.0).unwrap();
        assert_eq!(r.domain(), &d("[3:5,7:9]"));
        assert_eq!(
            r.get::<u32>(&Point::from_slice(&[4, 8])).unwrap(),
            4 + 8 + 1
        );
    }
}
