//! Cell types — the base types `T` of MDD objects (§3).
//!
//! The storage manager treats cells as opaque fixed-size byte strings
//! ([`CellType`]); the typed layer ([`CellValue`]) gives applications
//! ergonomic access for the common scalar and pixel types.

use tilestore_testkit::json::required;
use tilestore_testkit::{FromJson, Json, JsonError, JsonReader, ToJson};

/// Runtime descriptor of a cell type: a name, a fixed size, and the default
/// value used for cells in uncovered areas (§4: "areas left empty are
/// considered to be covered by cells with a default value").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellType {
    /// Human-readable type name (e.g. `"u32"`, `"rgb"`).
    pub name: String,
    /// Cell size in bytes.
    pub size: usize,
    /// Default cell value, exactly `size` bytes.
    pub default: Vec<u8>,
}

impl CellType {
    /// A cell type with an all-zero default value.
    #[must_use]
    pub fn zeroed(name: &str, size: usize) -> Self {
        CellType {
            name: name.to_string(),
            size,
            default: vec![0u8; size],
        }
    }

    /// A cell type with an explicit default value (`default.len()` is the
    /// cell size).
    #[must_use]
    pub fn with_default(name: &str, default: Vec<u8>) -> Self {
        CellType {
            name: name.to_string(),
            size: default.len(),
            default,
        }
    }

    /// The descriptor of a typed cell, with `T::default()` as default value.
    #[must_use]
    pub fn of<T: CellValue>() -> Self {
        let mut default = vec![0u8; T::SIZE];
        T::default().write_bytes(&mut default);
        CellType {
            name: T::NAME.to_string(),
            size: T::SIZE,
            default,
        }
    }
}

impl ToJson for CellType {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("size", self.size.to_json()),
            ("default", self.default.to_json()),
        ])
    }
}

impl FromJson for CellType {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let (mut name, mut size, mut default) = (None, None, None);
        r.object(|r, key| match key {
            "name" => r.field(&mut name),
            "size" => r.field(&mut size),
            "default" => r.field(&mut default),
            _ => r.skip(),
        })?;
        Ok(CellType {
            name: required(name, "name")?,
            size: required(size, "size")?,
            default: required(default, "default")?,
        })
    }
}

/// A fixed-size value usable as an MDD cell.
///
/// Multi-byte integers and floats use little-endian encoding; the encoding
/// only needs to be internally consistent (the engine never interprets cell
/// bytes).
pub trait CellValue: Copy + Default + PartialEq + std::fmt::Debug {
    /// Size of the encoded value in bytes.
    const SIZE: usize;
    /// Type name used in [`CellType::name`].
    const NAME: &'static str;

    /// Encodes the value into `out` (exactly `SIZE` bytes).
    fn write_bytes(&self, out: &mut [u8]);

    /// Decodes a value from `bytes` (exactly `SIZE` bytes).
    fn read_bytes(bytes: &[u8]) -> Self;
}

macro_rules! impl_cell_value_int {
    ($($t:ty => $name:literal),* $(,)?) => {
        $(
            impl CellValue for $t {
                const SIZE: usize = std::mem::size_of::<$t>();
                const NAME: &'static str = $name;

                fn write_bytes(&self, out: &mut [u8]) {
                    out.copy_from_slice(&self.to_le_bytes());
                }

                fn read_bytes(bytes: &[u8]) -> Self {
                    <$t>::from_le_bytes(bytes.try_into().expect("exact cell size"))
                }
            }
        )*
    };
}

impl_cell_value_int!(
    u8 => "u8",
    i8 => "i8",
    u16 => "u16",
    i16 => "i16",
    u32 => "u32",
    i32 => "i32",
    u64 => "u64",
    i64 => "i64",
    f32 => "f32",
    f64 => "f64",
);

/// An RGB pixel — the 3-byte cell of the paper's animation object (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Rgb {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Rgb {
    /// Creates a pixel.
    #[must_use]
    pub fn new(r: u8, g: u8, b: u8) -> Self {
        Rgb { r, g, b }
    }
}

impl CellValue for Rgb {
    const SIZE: usize = 3;
    const NAME: &'static str = "rgb";

    fn write_bytes(&self, out: &mut [u8]) {
        out[0] = self.r;
        out[1] = self.g;
        out[2] = self.b;
    }

    fn read_bytes(bytes: &[u8]) -> Self {
        Rgb {
            r: bytes[0],
            g: bytes[1],
            b: bytes[2],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut buf = [0u8; 8];
        42u32.write_bytes(&mut buf[..4]);
        assert_eq!(u32::read_bytes(&buf[..4]), 42);
        (-7i64).write_bytes(&mut buf);
        assert_eq!(i64::read_bytes(&buf), -7);
        let mut fbuf = [0u8; 8];
        3.5f64.write_bytes(&mut fbuf);
        assert_eq!(f64::read_bytes(&fbuf), 3.5);
    }

    #[test]
    fn rgb_round_trip() {
        let px = Rgb::new(10, 20, 30);
        let mut buf = [0u8; 3];
        px.write_bytes(&mut buf);
        assert_eq!(Rgb::read_bytes(&buf), px);
        assert_eq!(Rgb::SIZE, 3);
    }

    #[test]
    fn cell_type_descriptors() {
        let t = CellType::of::<u32>();
        assert_eq!(t.name, "u32");
        assert_eq!(t.size, 4);
        assert_eq!(t.default, vec![0, 0, 0, 0]);

        let z = CellType::zeroed("blob16", 16);
        assert_eq!(z.size, 16);

        let d = CellType::with_default("flag", vec![0xFF]);
        assert_eq!(d.size, 1);
        assert_eq!(d.default, vec![0xFF]);
    }
}
