//! Tensor shapes.

use std::fmt;

/// A tensor shape (row-major / "C order"; NCHW for image models,
/// `[batch, seq, hidden]` for language models).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from its dimensions.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into())
    }

    /// A scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// The dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (1 for scalars).
    pub fn elements(&self) -> usize {
        self.0.iter().product()
    }

    /// Dimension `i`, counting negative indices from the back
    /// (`dim(-1)` is the innermost dimension).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn dim(&self, i: isize) -> usize {
        if i < 0 {
            self.0[self.0.len() - (-i) as usize]
        } else {
            self.0[i as usize]
        }
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Whether two shapes are broadcast-compatible under numpy rules.
    pub fn broadcastable_with(&self, other: &Shape) -> bool {
        self.0
            .iter()
            .rev()
            .zip(other.0.iter().rev())
            .all(|(&a, &b)| a == b || a == 1 || b == 1)
    }

    /// The broadcast result shape of `self` and `other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn broadcast(&self, other: &Shape) -> Shape {
        assert!(
            self.broadcastable_with(other),
            "shapes {self} and {other} are not broadcastable"
        );
        let rank = self.rank().max(other.rank());
        let get = |s: &Shape, i: usize| -> usize {
            let r = s.rank();
            if i + r >= rank {
                s.0[i + r - rank]
            } else {
                1
            }
        };
        Shape((0..rank).map(|i| get(self, i).max(get(other, i))).collect())
    }

    /// Applies a permutation, returning the transposed shape.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..rank`.
    pub fn permute(&self, perm: &[usize]) -> Shape {
        assert_eq!(perm.len(), self.rank(), "permutation rank mismatch");
        for (i, &p) in perm.iter().enumerate() {
            assert!(!perm[..i].contains(&p), "duplicate axis {p} in permutation");
        }
        Shape(perm.iter().map(|&p| self.0[p]).collect())
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elements_and_strides() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.elements(), 24);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.dim(-1), 4);
        assert_eq!(s.dim(0), 2);
    }

    #[test]
    fn broadcast_rules() {
        let a = Shape::from([1, 128, 768]);
        let b = Shape::from([768]);
        assert!(a.broadcastable_with(&b));
        assert_eq!(a.broadcast(&b), Shape::from([1, 128, 768]));
        let c = Shape::from([1, 128, 1]);
        assert_eq!(a.broadcast(&c), a);
        let bad = Shape::from([5]);
        assert!(!a.broadcastable_with(&bad));
    }

    #[test]
    fn permute_transposes() {
        let s = Shape::from([1, 12, 128, 64]);
        assert_eq!(s.permute(&[0, 2, 1, 3]), Shape::from([1, 128, 12, 64]));
    }

    #[test]
    #[should_panic]
    fn permute_rejects_duplicates() {
        Shape::from([2, 3]).permute(&[0, 0]);
    }

    #[test]
    fn scalar_has_one_element() {
        assert_eq!(Shape::scalar().elements(), 1);
        assert_eq!(Shape::scalar().rank(), 0);
    }
}
