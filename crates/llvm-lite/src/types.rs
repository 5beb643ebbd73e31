//! The LLVM-lite type system.
//!
//! Types are plain trees (`Box`-nested). This costs a little cloning but
//! keeps equality/hashing structural and removes the need for a context
//! object, which keeps every other API in the crate free of lifetimes.
//!
//! Pointers are **typed** (`float*`, `[32 x float]*`) — the pre-LLVM-15
//! dialect. This is deliberate: the paper's adaptor exists precisely because
//! commercial HLS front-ends (Vitis HLS builds on an old LLVM) reject modern
//! IR, and typed pointers are the most visible symptom of the version gap.

/// A first-class IR type.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Type {
    /// The unit type of functions that return nothing and of side-effecting
    /// instructions such as `store`.
    Void,
    /// Arbitrary-width integer `iN`. Widths used in practice here: 1, 8, 16,
    /// 32, 64.
    Int(u32),
    /// IEEE-754 binary32 (`float`).
    Float,
    /// IEEE-754 binary64 (`double`).
    Double,
    /// Typed pointer `T*`.
    Ptr(Box<Type>),
    /// Fixed-size array `[N x T]`.
    Array(u64, Box<Type>),
    /// Function type; only appears behind pointers and in declarations.
    Func { ret: Box<Type>, params: Vec<Type> },
}

impl Type {
    /// `i1`, the boolean produced by comparisons.
    pub const I1: Type = Type::Int(1);
    /// `i8`.
    pub const I8: Type = Type::Int(8);
    /// `i16`.
    pub const I16: Type = Type::Int(16);
    /// `i32`.
    pub const I32: Type = Type::Int(32);
    /// `i64`, also the index width used for `getelementptr`.
    pub const I64: Type = Type::Int(64);

    /// Shorthand for a pointer to `self`.
    pub fn ptr_to(&self) -> Type {
        Type::Ptr(Box::new(self.clone()))
    }

    /// Shorthand for `[n x self]`.
    pub fn array_of(&self, n: u64) -> Type {
        Type::Array(n, Box::new(self.clone()))
    }

    /// True for `iN`.
    pub fn is_int(&self) -> bool {
        matches!(self, Type::Int(_))
    }

    /// True for `float` or `double`.
    pub fn is_float(&self) -> bool {
        matches!(self, Type::Float | Type::Double)
    }

    /// True for any pointer.
    pub fn is_ptr(&self) -> bool {
        matches!(self, Type::Ptr(_))
    }

    /// Integer bit width, if an integer.
    pub fn int_width(&self) -> Option<u32> {
        match self {
            Type::Int(w) => Some(*w),
            _ => None,
        }
    }

    /// The pointee of a pointer type.
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Ptr(p) => Some(p),
            _ => None,
        }
    }

    /// The element type of an array type.
    pub fn array_elem(&self) -> Option<&Type> {
        match self {
            Type::Array(_, e) => Some(e),
            _ => None,
        }
    }

    /// Array length, if an array.
    pub fn array_len(&self) -> Option<u64> {
        match self {
            Type::Array(n, _) => Some(*n),
            _ => None,
        }
    }

    /// Strips all array dimensions: `[4 x [8 x float]] -> float`.
    pub fn scalar_base(&self) -> &Type {
        match self {
            Type::Array(_, e) => e.scalar_base(),
            other => other,
        }
    }

    /// Total number of scalar elements in a (possibly nested) array type;
    /// `1` for scalars.
    pub fn flat_len(&self) -> u64 {
        match self {
            Type::Array(n, e) => n * e.flat_len(),
            _ => 1,
        }
    }

    /// Size in bytes following a conventional 64-bit data layout. Pointers
    /// are 8 bytes; `i1` occupies 1 byte like `i8` (as clang stores bools).
    pub fn size_in_bytes(&self) -> u64 {
        match self {
            Type::Void => 0,
            Type::Int(w) => u64::from((*w).div_ceil(8)).max(1),
            Type::Float => 4,
            Type::Double => 8,
            Type::Ptr(_) => 8,
            Type::Array(n, e) => n * e.size_in_bytes(),
            Type::Func { .. } => 8,
        }
    }

    /// Natural alignment in bytes (same rules as [`Type::size_in_bytes`] for
    /// scalars; arrays align as their elements).
    pub fn align_in_bytes(&self) -> u64 {
        match self {
            Type::Array(_, e) => e.align_in_bytes(),
            Type::Void => 1,
            other => other.size_in_bytes().max(1),
        }
    }

    /// Whether this type can be loaded/stored as a single scalar access.
    pub fn is_first_class_scalar(&self) -> bool {
        matches!(
            self,
            Type::Int(_) | Type::Float | Type::Double | Type::Ptr(_)
        )
    }
}

/// Append `v` in decimal, as `Display` for `u64` would, without building
/// `fmt::Arguments`.
pub(crate) fn write_decimal(w: &mut impl std::fmt::Write, mut v: u64) -> std::fmt::Result {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    w.write_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"))
}

impl Type {
    /// Write the `Display` form straight to `w`. The printer calls this
    /// once or twice per operand, where formatting each component through
    /// `write!` was a visible share of a print.
    pub(crate) fn write_to(&self, w: &mut impl std::fmt::Write) -> std::fmt::Result {
        match self {
            Type::Void => w.write_str("void"),
            Type::Int(n) => {
                w.write_char('i')?;
                write_decimal(w, u64::from(*n))
            }
            Type::Float => w.write_str("float"),
            Type::Double => w.write_str("double"),
            Type::Ptr(p) => {
                p.write_to(w)?;
                w.write_char('*')
            }
            Type::Array(n, e) => {
                w.write_char('[')?;
                write_decimal(w, *n)?;
                w.write_str(" x ")?;
                e.write_to(w)?;
                w.write_char(']')
            }
            Type::Func { ret, params } => {
                ret.write_to(w)?;
                w.write_str(" (")?;
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        w.write_str(", ")?;
                    }
                    p.write_to(w)?;
                }
                w.write_char(')')
            }
        }
    }
}

impl std::fmt::Display for Type {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.write_to(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_scalars() {
        assert_eq!(Type::I32.to_string(), "i32");
        assert_eq!(Type::Float.to_string(), "float");
        assert_eq!(Type::Double.to_string(), "double");
        assert_eq!(Type::Void.to_string(), "void");
        assert_eq!(Type::Int(1).to_string(), "i1");
    }

    #[test]
    fn display_composites() {
        let a = Type::Float.array_of(8).array_of(4);
        assert_eq!(a.to_string(), "[4 x [8 x float]]");
        assert_eq!(a.ptr_to().to_string(), "[4 x [8 x float]]*");
        let f = Type::Func {
            ret: Box::new(Type::Void),
            params: vec![Type::I32, Type::Double.ptr_to()],
        };
        assert_eq!(f.ptr_to().to_string(), "void (i32, double*)*");
        assert_eq!(Type::Int(128).array_of(0).to_string(), "[0 x i128]");
    }

    #[test]
    fn sizes_follow_layout() {
        assert_eq!(Type::I32.size_in_bytes(), 4);
        assert_eq!(Type::Int(1).size_in_bytes(), 1);
        assert_eq!(Type::Double.size_in_bytes(), 8);
        assert_eq!(Type::Float.ptr_to().size_in_bytes(), 8);
        assert_eq!(Type::Float.array_of(10).size_in_bytes(), 40);
        assert_eq!(Type::I64.array_of(3).array_of(2).size_in_bytes(), 48);
    }

    #[test]
    fn flat_len_counts_scalars() {
        assert_eq!(Type::Float.flat_len(), 1);
        assert_eq!(Type::Float.array_of(8).array_of(4).flat_len(), 32);
    }

    #[test]
    fn scalar_base_strips_arrays() {
        let a = Type::I32.array_of(8).array_of(4);
        assert_eq!(*a.scalar_base(), Type::I32);
        assert_eq!(*Type::Float.scalar_base(), Type::Float);
    }

    #[test]
    fn accessors() {
        let p = Type::Float.ptr_to();
        assert!(p.is_ptr());
        assert_eq!(p.pointee(), Some(&Type::Float));
        assert_eq!(Type::I32.int_width(), Some(32));
        assert_eq!(Type::Float.int_width(), None);
        let a = Type::Float.array_of(7);
        assert_eq!(a.array_len(), Some(7));
        assert_eq!(a.array_elem(), Some(&Type::Float));
    }

    #[test]
    fn alignment_of_arrays_is_elementwise() {
        assert_eq!(Type::Double.array_of(3).align_in_bytes(), 8);
        assert_eq!(Type::Int(8).array_of(3).align_in_bytes(), 1);
    }
}
