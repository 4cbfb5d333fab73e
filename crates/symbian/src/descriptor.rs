//! 16-bit descriptor model (`TDes16` and friends).
//!
//! Descriptors are Symbian's bounds-checked string/buffer abstraction:
//! a current length and a maximum length over a fixed backing store.
//! Misusing them is one of the dominant failure causes the paper
//! observed: copy/append/format operations that push the length past
//! the maximum raise `USER 11`, and out-of-bounds position arguments
//! to `Left`/`Right`/`Mid`/`Insert`/`Delete`/`Replace` raise
//! `USER 10`.
//!
//! The model stores `char`s rather than UTF-16 code units — the
//! length-vs-max-length bookkeeping, which is what panics, is
//! identical.

use serde::{Deserialize, Serialize};

use crate::panic::{codes, Panic};

/// A modifiable descriptor with a fixed maximum length (`TBuf`).
///
/// # Example
///
/// ```
/// use symfail_symbian::descriptor::TBuf;
///
/// let mut b = TBuf::with_max_length(16);
/// b.copy("hello")?;
/// b.append(" world")?;
/// assert_eq!(b.as_str(), "hello world");
/// assert_eq!(b.length(), 11);
/// # Ok::<(), symfail_symbian::Panic>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TBuf {
    data: Vec<char>,
    max_length: usize,
}

impl TBuf {
    /// Creates an empty descriptor that can hold up to `max_length`
    /// characters.
    pub fn with_max_length(max_length: usize) -> Self {
        Self {
            data: Vec::new(),
            max_length,
        }
    }

    /// Creates a descriptor initialized from `s`.
    ///
    /// # Errors
    ///
    /// Raises `USER 11` if `s` is longer than `max_length`.
    pub fn from_str(s: &str, max_length: usize) -> Result<Self, Panic> {
        let mut b = Self::with_max_length(max_length);
        b.copy(s)?;
        Ok(b)
    }

    /// Current length in characters.
    pub fn length(&self) -> usize {
        self.data.len()
    }

    /// Maximum length in characters.
    pub fn max_length(&self) -> usize {
        self.max_length
    }

    /// The content as a `String`.
    pub fn as_str(&self) -> String {
        self.data.iter().collect()
    }

    fn overflow(&self, op: &str, attempted: usize) -> Panic {
        Panic::new(
            codes::USER_11,
            "descriptor",
            format!(
                "{op} would set length {attempted} past max length {}",
                self.max_length
            ),
        )
    }

    fn out_of_bounds(&self, op: &str, pos: usize) -> Panic {
        Panic::new(
            codes::USER_10,
            "descriptor",
            format!(
                "{op} position {pos} out of bounds for length {}",
                self.data.len()
            ),
        )
    }

    /// Replaces the content with `s` (`Copy()`).
    ///
    /// # Errors
    ///
    /// Raises `USER 11` if `s` exceeds the maximum length.
    pub fn copy(&mut self, s: &str) -> Result<(), Panic> {
        let chars: Vec<char> = s.chars().collect();
        if chars.len() > self.max_length {
            return Err(self.overflow("Copy", chars.len()));
        }
        self.data = chars;
        Ok(())
    }

    /// Appends `s` (`Append()`).
    ///
    /// # Errors
    ///
    /// Raises `USER 11` if the result exceeds the maximum length.
    pub fn append(&mut self, s: &str) -> Result<(), Panic> {
        let extra = s.chars().count();
        if self.data.len() + extra > self.max_length {
            return Err(self.overflow("Append", self.data.len() + extra));
        }
        self.data.extend(s.chars());
        Ok(())
    }

    /// Inserts `s` at `pos` (`Insert()`).
    ///
    /// # Errors
    ///
    /// Raises `USER 10` if `pos > length`, `USER 11` if the result
    /// exceeds the maximum length.
    pub fn insert(&mut self, pos: usize, s: &str) -> Result<(), Panic> {
        if pos > self.data.len() {
            return Err(self.out_of_bounds("Insert", pos));
        }
        let extra: Vec<char> = s.chars().collect();
        if self.data.len() + extra.len() > self.max_length {
            return Err(self.overflow("Insert", self.data.len() + extra.len()));
        }
        self.data.splice(pos..pos, extra);
        Ok(())
    }

    /// Deletes `len` characters starting at `pos` (`Delete()`).
    ///
    /// # Errors
    ///
    /// Raises `USER 10` if the range is out of bounds.
    pub fn delete(&mut self, pos: usize, len: usize) -> Result<(), Panic> {
        if pos > self.data.len() || pos + len > self.data.len() {
            return Err(self.out_of_bounds("Delete", pos + len));
        }
        self.data.drain(pos..pos + len);
        Ok(())
    }

    /// The leftmost `len` characters (`Left()`).
    ///
    /// # Errors
    ///
    /// Raises `USER 10` if `len > length`.
    pub fn left(&self, len: usize) -> Result<String, Panic> {
        if len > self.data.len() {
            return Err(self.out_of_bounds("Left", len));
        }
        Ok(self.data[..len].iter().collect())
    }

    /// `len` characters starting at `pos` (`Mid()`).
    ///
    /// # Errors
    ///
    /// Raises `USER 10` if the range is out of bounds.
    pub fn mid(&self, pos: usize, len: usize) -> Result<String, Panic> {
        if pos > self.data.len() || pos + len > self.data.len() {
            return Err(self.out_of_bounds("Mid", pos + len));
        }
        Ok(self.data[pos..pos + len].iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(s: &str, max: usize) -> TBuf {
        TBuf::from_str(s, max).unwrap()
    }

    #[test]
    fn construction_and_basic_properties() {
        let b = buf("abc", 10);
        assert_eq!(b.length(), 3);
        assert_eq!(b.max_length(), 10);
        assert_eq!(b.as_str(), "abc");
        assert!(TBuf::from_str("abcd", 3).is_err());
        assert_eq!(TBuf::with_max_length(0).length(), 0);
    }

    #[test]
    fn copy_overflow_is_user_11() {
        let mut b = TBuf::with_max_length(3);
        let p = b.copy("abcd").unwrap_err();
        assert_eq!(p.code, codes::USER_11);
        assert_eq!(b.length(), 0, "failed copy must not mutate");
    }

    #[test]
    fn append_up_to_exact_capacity() {
        let mut b = buf("ab", 4);
        b.append("cd").unwrap();
        assert_eq!(b.as_str(), "abcd");
        assert_eq!(b.append("e").unwrap_err().code, codes::USER_11);
        assert_eq!(b.as_str(), "abcd");
    }

    #[test]
    fn insert_positions() {
        let mut b = buf("ad", 10);
        b.insert(1, "bc").unwrap();
        assert_eq!(b.as_str(), "abcd");
        b.insert(0, "_").unwrap();
        b.insert(5, "!").unwrap();
        assert_eq!(b.as_str(), "_abcd!");
        assert_eq!(b.insert(99, "x").unwrap_err().code, codes::USER_10);
        let mut small = buf("abc", 3);
        assert_eq!(small.insert(1, "x").unwrap_err().code, codes::USER_11);
    }

    #[test]
    fn delete_ranges() {
        let mut b = buf("abcdef", 10);
        b.delete(1, 2).unwrap();
        assert_eq!(b.as_str(), "adef");
        assert_eq!(b.delete(3, 2).unwrap_err().code, codes::USER_10);
        b.delete(0, 4).unwrap();
        assert_eq!(b.length(), 0);
    }

    #[test]
    fn left_mid() {
        let b = buf("abcdef", 10);
        assert_eq!(b.left(3).unwrap(), "abc");
        assert_eq!(b.mid(2, 3).unwrap(), "cde");
        assert_eq!(b.left(7).unwrap_err().code, codes::USER_10);
        assert_eq!(b.mid(5, 2).unwrap_err().code, codes::USER_10);
        assert_eq!(b.mid(0, 0).unwrap(), "");
    }
}
