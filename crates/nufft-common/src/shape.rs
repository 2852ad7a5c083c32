//! Small helpers describing 1-3 dimensional grids.

/// Grid shape for up to three dimensions. Unused trailing dimensions are 1,
/// so `total()` and strides work uniformly across 1D/2D/3D code paths.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Extents `[n1, n2, n3]`; `n1` is the fastest-varying (x) axis,
    /// matching the paper's "x axis fast, y slow" ordering.
    pub n: [usize; 3],
    /// Number of meaningful dimensions (1, 2 or 3).
    pub dim: usize,
}

impl Shape {
    pub fn d1(n1: usize) -> Self {
        Shape {
            n: [n1, 1, 1],
            dim: 1,
        }
    }
    pub fn d2(n1: usize, n2: usize) -> Self {
        Shape {
            n: [n1, n2, 1],
            dim: 2,
        }
    }
    pub fn d3(n1: usize, n2: usize, n3: usize) -> Self {
        Shape {
            n: [n1, n2, n3],
            dim: 3,
        }
    }

    /// Build from a slice of 1-3 extents.
    pub fn from_slice(dims: &[usize]) -> Self {
        assert!(
            (1..=3).contains(&dims.len()),
            "Shape supports 1-3 dimensions, got {}",
            dims.len()
        );
        let mut n = [1usize; 3];
        n[..dims.len()].copy_from_slice(dims);
        Shape { n, dim: dims.len() }
    }

    /// Total number of grid points.
    #[inline]
    pub fn total(&self) -> usize {
        self.n[0] * self.n[1] * self.n[2]
    }

    /// Total number of grid points, or `None` when the product
    /// overflows `usize`.
    #[inline]
    pub fn checked_total(&self) -> Option<usize> {
        self.n[0].checked_mul(self.n[1])?.checked_mul(self.n[2])
    }

    /// Row-major-in-x strides: element `(l1,l2,l3)` lives at
    /// `l1 + n1*(l2 + n2*l3)`.
    #[inline]
    pub fn strides(&self) -> [usize; 3] {
        [1, self.n[0], self.n[0] * self.n[1]]
    }

    /// Linear index of a grid point.
    #[inline(always)]
    pub fn idx(&self, l1: usize, l2: usize, l3: usize) -> usize {
        debug_assert!(l1 < self.n[0] && l2 < self.n[1] && l3 < self.n[2]);
        l1 + self.n[0] * (l2 + self.n[1] * l3)
    }

    /// Inverse of [`Shape::idx`].
    #[inline]
    pub fn coords(&self, idx: usize) -> [usize; 3] {
        let l1 = idx % self.n[0];
        let r = idx / self.n[0];
        [l1, r % self.n[1], r / self.n[1]]
    }

    /// Apply a per-dimension map, keeping `dim`.
    pub fn map<F: FnMut(usize, usize) -> usize>(&self, mut f: F) -> Shape {
        let mut n = [1usize; 3];
        for (i, ni) in n.iter_mut().enumerate().take(self.dim) {
            *ni = f(i, self.n[i]);
        }
        Shape { n, dim: self.dim }
    }
}

/// The integer Fourier frequency grid `I_N = {-N/2, ..., N/2 - 1}` (eq. 2 of
/// the paper). Returns the starting (most negative) frequency.
#[inline]
pub fn freq_start(n: usize) -> i64 {
    -((n as i64) / 2)
}

/// Iterate the frequencies of `I_N` in output order (ascending `k`).
pub fn freqs(n: usize) -> impl Iterator<Item = i64> {
    let k0 = freq_start(n);
    (0..n as i64).map(move |j| k0 + j)
}

/// Map a signed frequency `k in I_n` to its DFT bin in `[0, n)`.
#[inline(always)]
pub fn freq_to_bin(k: i64, n: usize) -> usize {
    k.rem_euclid(n as i64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_strides() {
        let s = Shape::d3(4, 3, 2);
        assert_eq!(s.total(), 24);
        assert_eq!(s.strides(), [1, 4, 12]);
        let s = Shape::d2(5, 7);
        assert_eq!(s.total(), 35);
        assert_eq!(s.n[2], 1);
        assert_eq!(Shape::d3(4, 3, 2).checked_total(), Some(24));
        assert_eq!(
            Shape::d3(1 << 21, 1 << 21, 1 << 21).checked_total(),
            Some(1 << 63)
        );
        assert_eq!(Shape::d3(1 << 22, 1 << 22, 1 << 22).checked_total(), None);
        assert_eq!(Shape::d2(usize::MAX / 2, 3).checked_total(), None);
    }

    #[test]
    fn idx_coords_roundtrip() {
        let s = Shape::d3(4, 3, 2);
        for i in 0..s.total() {
            let [a, b, c] = s.coords(i);
            assert_eq!(s.idx(a, b, c), i);
        }
    }

    #[test]
    fn from_slice_dims() {
        assert_eq!(Shape::from_slice(&[8]), Shape::d1(8));
        assert_eq!(Shape::from_slice(&[8, 4]), Shape::d2(8, 4));
        assert_eq!(Shape::from_slice(&[8, 4, 2]), Shape::d3(8, 4, 2));
    }

    #[test]
    #[should_panic]
    fn from_slice_rejects_empty() {
        Shape::from_slice(&[]);
    }

    #[test]
    fn frequency_grid_matches_paper() {
        // I_4 = {-2,-1,0,1}; I_5 = {-2,-1,0,1,2}
        assert_eq!(freqs(4).collect::<Vec<_>>(), vec![-2, -1, 0, 1]);
        assert_eq!(freqs(5).collect::<Vec<_>>(), vec![-2, -1, 0, 1, 2]);
    }

    #[test]
    fn bin_mapping_wraps_negatives() {
        assert_eq!(freq_to_bin(0, 8), 0);
        assert_eq!(freq_to_bin(3, 8), 3);
        assert_eq!(freq_to_bin(-1, 8), 7);
        assert_eq!(freq_to_bin(-4, 8), 4);
    }
}
